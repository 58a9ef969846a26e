package faults

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sais/internal/rng"
	"sais/internal/units"
)

// samplePlan exercises every field of the spec.
func samplePlan() *Plan {
	return &Plan{
		Loss:    0.01,
		Corrupt: 0.005,
		Stalls: []Stall{
			{Server: 0, Rate: 0.5, Mean: units.Millisecond, Jitter: 100 * units.Microsecond},
			{Server: 1, Rate: 1, Mean: 2 * units.Millisecond},
		},
		Timeline: []TimelineEvent{
			{At: units.Millisecond, Kind: KindCrash, Server: 0},
			{At: 2 * units.Millisecond, Kind: KindDegradeLink, Factor: 4},
			{At: 3 * units.Millisecond, Kind: KindRevive, Server: 0},
			{At: 4 * units.Millisecond, Kind: KindStormStart, Client: -1, Period: 50 * units.Microsecond},
			{At: 5 * units.Millisecond, Kind: KindStormStop},
		},
	}
}

func TestValidateTable(t *testing.T) {
	cases := []struct {
		name    string
		plan    *Plan
		servers int
		clients int
		wantErr string // substring; "" = valid
	}{
		{"nil plan", nil, 0, 0, ""},
		{"zero plan", &Plan{}, 1, 1, ""},
		{"full plan", samplePlan(), 2, 1, ""},
		{"negative loss", &Plan{Loss: -0.1}, 1, 1, "loss"},
		{"loss of one", &Plan{Loss: 1}, 1, 1, "loss"},
		{"negative corrupt", &Plan{Corrupt: -0.5}, 1, 1, "corrupt"},
		{"corrupt of one", &Plan{Corrupt: 1}, 1, 1, "corrupt"},
		{"stall bad server", &Plan{Stalls: []Stall{{Server: 3, Rate: 1, Mean: 1}}}, 2, 1, "targets server"},
		{"stall rate above one", &Plan{Stalls: []Stall{{Server: 0, Rate: 1.5, Mean: 1}}}, 1, 1, "rate"},
		{"stall negative mean", &Plan{Stalls: []Stall{{Server: 0, Rate: 1, Mean: -1}}}, 1, 1, "negative delay"},
		{"stall negative jitter", &Plan{Stalls: []Stall{{Server: 0, Rate: 1, Jitter: -1}}}, 1, 1, "negative delay"},
		{"stall overlap", &Plan{Stalls: []Stall{
			{Server: 1, Rate: 1, Mean: 1}, {Server: 1, Rate: 0.5, Mean: 1},
		}}, 2, 1, "re-targets"},
		{"stall overlap via all", &Plan{Stalls: []Stall{
			{Server: -1, Rate: 1, Mean: 1}, {Server: 0, Rate: 0.5, Mean: 1},
		}}, 2, 1, "re-targets"},
		{"negative event time", &Plan{Timeline: []TimelineEvent{
			{At: -1, Kind: KindCrash, Server: 0},
		}}, 1, 1, "negative time"},
		{"crash bad server", &Plan{Timeline: []TimelineEvent{
			{At: 0, Kind: KindCrash, Server: 5},
		}}, 2, 1, "targets server"},
		{"revive bad server", &Plan{Timeline: []TimelineEvent{
			{At: 0, Kind: KindRevive, Server: -1},
		}}, 2, 1, "targets server"},
		{"degrade zero factor", &Plan{Timeline: []TimelineEvent{
			{At: 0, Kind: KindDegradeLink},
		}}, 1, 1, "factor"},
		{"storm zero period", &Plan{Timeline: []TimelineEvent{
			{At: 0, Kind: KindStormStart, Client: -1},
			{At: 1, Kind: KindStormStop},
		}}, 1, 1, "period"},
		{"storm negative payload", &Plan{Timeline: []TimelineEvent{
			{At: 0, Kind: KindStormStart, Client: -1, Period: 1, Payload: -1},
			{At: 1, Kind: KindStormStop},
		}}, 1, 1, "payload"},
		{"storm bad client", &Plan{Timeline: []TimelineEvent{
			{At: 0, Kind: KindStormStart, Client: 7, Period: 1},
			{At: 1, Kind: KindStormStop},
		}}, 1, 1, "targets client"},
		{"nested storm", &Plan{Timeline: []TimelineEvent{
			{At: 0, Kind: KindStormStart, Client: -1, Period: 1},
			{At: 1, Kind: KindStormStart, Client: -1, Period: 1},
			{At: 2, Kind: KindStormStop},
		}}, 1, 1, "while a storm is active"},
		{"stop without start", &Plan{Timeline: []TimelineEvent{
			{At: 0, Kind: KindStormStop},
		}}, 1, 1, "without an active storm"},
		{"unterminated storm", &Plan{Timeline: []TimelineEvent{
			{At: 0, Kind: KindStormStart, Client: -1, Period: 1},
		}}, 1, 1, "without a matching storm-stop"},
		{"unknown kind", &Plan{Timeline: []TimelineEvent{
			{At: 0, Kind: "meteor-strike"},
		}}, 1, 1, "unknown kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate(tc.servers, tc.clients)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestSortedTimelineIsStable(t *testing.T) {
	p := &Plan{Timeline: []TimelineEvent{
		{At: 5, Kind: KindRevive, Server: 1},
		{At: 1, Kind: KindCrash, Server: 0},
		{At: 5, Kind: KindCrash, Server: 2}, // same time as the revive: original order kept
	}}
	tl := p.sortedTimeline()
	if tl[0].Kind != KindCrash || tl[0].Server != 0 {
		t.Errorf("first event = %+v", tl[0])
	}
	if tl[1].Kind != KindRevive || tl[2].Kind != KindCrash {
		t.Errorf("tie order not stable: %+v then %+v", tl[1], tl[2])
	}
	// The plan itself is untouched.
	if p.Timeline[0].At != 5 {
		t.Error("sortedTimeline mutated the plan")
	}
}

func TestCloneAndEmpty(t *testing.T) {
	if !(*Plan)(nil).Empty() || (*Plan)(nil).Clone() != nil {
		t.Error("nil plan should be empty and clone to nil")
	}
	if !(&Plan{}).Empty() {
		t.Error("zero plan should be empty")
	}
	p := samplePlan()
	if p.Empty() {
		t.Error("sample plan should not be empty")
	}
	cp := p.Clone()
	if !reflect.DeepEqual(p, cp) {
		t.Fatalf("clone differs: %+v vs %+v", p, cp)
	}
	cp.Stalls[0].Rate = 0.9
	cp.Timeline[0].Server = 1
	if p.Stalls[0].Rate == 0.9 || p.Timeline[0].Server == 1 {
		t.Error("clone shares slices with the original")
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := samplePlan()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got := &Plan{}
	if err := json.Unmarshal(b, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip changed the plan:\nwrote %+v\nread  %+v", p, got)
	}
}

// TestPlanJSONRoundTripByteIdentical pins the serialization itself:
// Save → Load → re-save must reproduce the bytes exactly, so committed
// scenario plans never churn in review when a tool rewrites them.
func TestPlanJSONRoundTripByteIdentical(t *testing.T) {
	first, err := json.MarshalIndent(samplePlan(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	reread := &Plan{}
	if err := json.Unmarshal(first, reread); err != nil {
		t.Fatal(err)
	}
	second, err := json.MarshalIndent(reread, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("re-save not byte-identical:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}

// TestDegradeBelowOneRejectedUniformly pins the uniform rule: a
// degrade-link factor below 1 fails plan validation regardless of how
// the run is sharded — it used to slip through on shards=1 and only
// error under the sharded executor.
func TestDegradeBelowOneRejectedUniformly(t *testing.T) {
	p := &Plan{Timeline: []TimelineEvent{{At: 0, Kind: KindDegradeLink, Factor: 0.5}}}
	err := p.Validate(1, 1)
	if err == nil || !strings.Contains(err.Error(), "factor") {
		t.Fatalf("Validate() = %v, want factor error", err)
	}
	r := newRig(t, 1)
	if _, err := p.Arm(r.target(rng.New(1))); err == nil {
		t.Fatal("Arm accepted a sub-1 degrade factor on a single engine")
	}
}

func TestMergePlans(t *testing.T) {
	base := &Plan{Loss: 0.01, Stalls: []Stall{{Server: 0, Rate: 1, Mean: units.Millisecond}}}
	extra := &Plan{Loss: 0.005, Corrupt: 0.02, Timeline: []TimelineEvent{
		{At: units.Millisecond, Kind: KindCrash, Server: 1},
	}}
	m := Merge(base, extra)
	if m.Loss != 0.01 || m.Corrupt != 0.02 {
		t.Errorf("merged rates = %v/%v, want max of each side", m.Loss, m.Corrupt)
	}
	if len(m.Stalls) != 1 || len(m.Timeline) != 1 {
		t.Errorf("merged shape = %d stalls, %d events", len(m.Stalls), len(m.Timeline))
	}
	// Merge never aliases its inputs.
	m.Stalls[0].Rate = 0.1
	m.Timeline[0].Server = 9
	if base.Stalls[0].Rate != 1 || extra.Timeline[0].Server != 1 {
		t.Error("Merge shares slices with an input plan")
	}
	if got := Merge(nil, extra); !reflect.DeepEqual(got, extra) || got == extra {
		t.Errorf("Merge(nil, extra) = %+v, want an equal copy", got)
	}
	if got := Merge(base, nil); !reflect.DeepEqual(got, base) || got == base {
		t.Errorf("Merge(base, nil) = %+v, want an equal copy", got)
	}
	if Merge(nil, nil) != nil {
		t.Error("Merge(nil, nil) should stay nil")
	}
}
