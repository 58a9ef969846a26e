package faults

import (
	"encoding/json"
	"strings"
	"testing"

	"sais/internal/rng"
	"sais/internal/units"
)

// FuzzPlanApply drives the whole plan pipeline — parse, validate, arm,
// run — with arbitrary JSON. The invariants: the injector never panics,
// an armed engine always drains (no fault schedule may wedge the
// simulation), and Finish leaves no open downtime interval.
func FuzzPlanApply(f *testing.F) {
	seed := func(p *Plan) {
		b, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	seed(&Plan{})
	seed(&Plan{Loss: 0.2, Corrupt: 0.1})
	seed(&Plan{Stalls: []Stall{{Server: -1, Rate: 0.5, Mean: units.Millisecond, Jitter: 100 * units.Microsecond}}})
	seed(&Plan{Timeline: []TimelineEvent{
		{At: units.Millisecond, Kind: KindCrash, Server: 0},
		{At: 2 * units.Millisecond, Kind: KindRevive, Server: 0},
	}})
	seed(&Plan{Timeline: []TimelineEvent{
		{At: 0, Kind: KindDegradeLink, Factor: 3},
		{At: units.Millisecond, Kind: KindStormStart, Client: -1, Period: 100 * units.Microsecond, Payload: 64},
		{At: 2 * units.Millisecond, Kind: KindStormStop},
	}})
	seed(samplePlan())
	f.Add(`{"Loss": -3}`)
	f.Add(`{"Timeline": [{"At": 0, "Kind": "storm-start", "Period": 1}]}`)

	f.Fuzz(func(t *testing.T, src string) {
		// Plans arrive inside config JSON, whose decoder rejects
		// unknown fields.
		dec := json.NewDecoder(strings.NewReader(src))
		dec.DisallowUnknownFields()
		p := &Plan{}
		if err := dec.Decode(p); err != nil {
			return
		}
		// Bound the storm tick count: a syntactically valid plan may
		// schedule an astronomically long storm that would take real
		// minutes of virtual ticking. The cap is a fuzz-harness budget,
		// not a package limit.
		var ticks, stormAt, stormPeriod units.Time
		for _, ev := range p.sortedTimeline() {
			if ev.At > 10*units.Second || ev.At < 0 {
				return
			}
			switch ev.Kind {
			case KindStormStart:
				stormAt, stormPeriod = ev.At, ev.Period
			case KindStormStop:
				if stormPeriod > 0 && ev.At > stormAt {
					ticks += (ev.At - stormAt) / stormPeriod
				}
			}
		}
		if ticks > 100000 {
			return
		}

		r := newRig(t, 2)
		inj, err := p.Arm(r.target(rng.New(1)))
		if err != nil {
			return // invalid against this shape; rejection is the contract
		}
		r.request(0, 0, 1, 2)
		r.request(units.Millisecond, 1, 2, 1)
		r.eng.RunUntilIdle() // must return: armed engines always drain
		st := inj.Finish(r.eng.Now())
		for i, d := range st.Downtime {
			if d < 0 {
				t.Fatalf("negative downtime %v for server %d", d, i)
			}
		}
		if st.StallTime < 0 {
			t.Fatalf("negative stall time %v", st.StallTime)
		}
	})
}
