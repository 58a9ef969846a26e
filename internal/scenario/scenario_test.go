package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sais/cluster"
	"sais/internal/faults"
	"sais/internal/units"
)

// quickCfg is a small cluster that runs in well under a second: the
// scenario tests exercise the harness, not the testbed scale.
func quickCfg() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Clients = 2
	cfg.Servers = 4
	cfg.CoresPerClient = 4
	cfg.ProcsPerClient = 2
	cfg.TransferSize = 256 * units.KiB
	cfg.BytesPerProc = units.MiB
	return cfg
}

func TestChaosGeneratorDeterministic(t *testing.T) {
	spec := &ChaosSpec{
		Crashes: 3, Stragglers: 2, Storms: 2, Degrades: 2,
		Loss: 0.01, Corrupt: 0.002,
	}
	p1, err := spec.Generate(7, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := spec.Generate(7, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("same (spec, seed) generated different plans:\n%+v\n%+v", p1, p2)
	}
	if p1.Empty() {
		t.Fatal("generated plan is empty")
	}
	if got := len(p1.Stalls); got != 2 {
		t.Errorf("stragglers = %d stalls, want 2", got)
	}
	// 3 crash pairs + 2 storm pairs + 2 degrade pairs = 14 events.
	if got := len(p1.Timeline); got != 14 {
		t.Errorf("timeline = %d events, want 14", got)
	}
	// A different config seed draws a different timeline (Seed 0 means
	// "derive from the config seed").
	p3, err := spec.Generate(8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(p1, p3) {
		t.Error("different config seeds generated identical chaos")
	}
	// A pinned spec seed shields the draw from the config seed.
	pinned := *spec
	pinned.Seed = 99
	p4, err := pinned.Generate(7, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	p5, err := pinned.Generate(1234, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p4, p5) {
		t.Error("pinned chaos seed still varied with the config seed")
	}
}

func TestChaosGeneratedPlansAlwaysValid(t *testing.T) {
	// Sweep seeds and shapes; every generated plan must validate (the
	// generator checks internally — this pins that the check holds
	// across draws, including storm/degrade slot packing).
	spec := &ChaosSpec{Crashes: 4, Stragglers: 8, Storms: 3, Degrades: 3,
		Horizon: 10 * units.Millisecond}
	for seed := uint64(1); seed <= 25; seed++ {
		p, err := spec.Generate(seed, 5, 3)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := p.Validate(5, 3); err != nil {
			t.Fatalf("seed %d: generated plan invalid: %v", seed, err)
		}
	}
}

func TestChaosSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec ChaosSpec
	}{
		{"negative crashes", ChaosSpec{Crashes: -1}},
		{"negative horizon", ChaosSpec{Horizon: -1}},
		{"stall rate above one", ChaosSpec{StallRate: 1.5}},
		{"loss of one", ChaosSpec{Loss: 1}},
		{"negative corrupt", ChaosSpec{Corrupt: -0.1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(); err == nil {
				t.Error("invalid spec accepted")
			}
		})
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	s := &Scenario{
		Name:        "rt",
		Description: "round trip",
		Config:      quickCfg(),
		Policies:    []string{"sais", "irqbalance"},
		Chaos:       &ChaosSpec{Crashes: 1, Horizon: 5 * units.Millisecond},
		Assertions:  []Assertion{{Metric: "failed_ops", Op: "==", Value: 0}},
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip changed the scenario:\nwrote %+v\nread  %+v", s, got)
	}
}

func TestScenarioReadRejects(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"unknown field", `{"Name": "x", "Bogus": 1}`, "Bogus"},
		{"missing name", `{"Description": "no name"}`, "missing name"},
		{"unknown policy", `{"Name": "x", "Policies": ["vibes"]}`, "unknown policy"},
		{"unknown metric", `{"Name": "x", "Assertions": [{"Metric": "vibes", "Op": ">=", "Value": 1}]}`, "unknown metric"},
		{"unknown op", `{"Name": "x", "Assertions": [{"Metric": "retries", "Op": "~", "Value": 1}]}`, "unknown op"},
		{"bad chaos", `{"Name": "x", "Chaos": {"Loss": 2}}`, "loss"},
		{"bad config", `{"Name": "x", "Config": {"Clients": -1}}`, "clients"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.src))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Read() error = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestAssertionEval(t *testing.T) {
	res := &cluster.Result{
		Bandwidth: 100 * units.MBps,
		Retries:   3,
	}
	res.Faults.OfferedBytes = 100
	res.Faults.GoodputBytes = 90
	cases := []struct {
		a    Assertion
		want bool
	}{
		{Assertion{"bandwidth_mbps", ">=", 99, ""}, true},
		{Assertion{"bandwidth_mbps", "<", 100, ""}, false},
		{Assertion{"retries", "==", 3, ""}, true},
		{Assertion{"retries", "!=", 3, ""}, false},
		{Assertion{"goodput_fraction", ">", 0.85, ""}, true},
		{Assertion{"goodput_fraction", "<=", 0.85, ""}, false},
	}
	for _, tc := range cases {
		_, ok, err := tc.a.Eval(res)
		if err != nil {
			t.Fatalf("%s: %v", tc.a, err)
		}
		if ok != tc.want {
			t.Errorf("%s = %v, want %v", tc.a, ok, tc.want)
		}
	}
	if _, _, err := (Assertion{"vibes", ">=", 1, ""}).Eval(res); err == nil {
		t.Error("unknown metric evaluated")
	}
}

// TestHealthyRunPassesInvariants: a fault-free run, single-engine and
// sharded, satisfies every invariant and the scenario passes end to
// end.
func TestHealthyRunPassesInvariants(t *testing.T) {
	for _, shards := range []int{0, 4} {
		cfg := quickCfg()
		cfg.Shards = shards
		s := &Scenario{
			Name:   "healthy",
			Config: cfg,
			Assertions: []Assertion{
				{Metric: "goodput_fraction", Op: "==", Value: 1},
				{Metric: "failed_ops", Op: "==", Value: 0},
			},
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() {
			t.Fatalf("shards=%d: healthy scenario failed:\n%s", shards, rep.Summary())
		}
	}
}

// TestFaultyRunPassesInvariants: crashes, loss, storms, and retries —
// the invariants still hold, on one engine and on four.
func TestFaultyRunPassesInvariants(t *testing.T) {
	for _, shards := range []int{0, 4} {
		cfg := quickCfg()
		cfg.Shards = shards
		cfg.RetryTimeout = 10 * units.Millisecond
		cfg.MaxRetries = 10
		cfg.Faults = &faults.Plan{
			Loss: 0.01,
			Timeline: []faults.TimelineEvent{
				{At: units.Millisecond, Kind: faults.KindCrash, Server: 1},
				{At: 4 * units.Millisecond, Kind: faults.KindRevive, Server: 1},
				{At: 2 * units.Millisecond, Kind: faults.KindStormStart,
					Client: 0, Period: 100 * units.Microsecond},
				{At: 3 * units.Millisecond, Kind: faults.KindStormStop},
			},
		}
		s := &Scenario{Name: "faulty", Config: cfg}
		rep, err := Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() {
			t.Fatalf("shards=%d: faulty scenario violated invariants:\n%s", shards, rep.Summary())
		}
		if rep.Rows[0].Runs[0].Result.Retries == 0 {
			t.Errorf("shards=%d: fault plan injected no retries; the test exercises nothing", shards)
		}
	}
}

// TestKnownBadPlanFailsInvariants is the checker's proof of life: a
// server crashed forever with recovery disabled strands its strips
// mid-flight, and the strip-terminal invariant must catch that.
func TestKnownBadPlanFailsInvariants(t *testing.T) {
	cfg := quickCfg()
	cfg.Faults = &faults.Plan{Timeline: []faults.TimelineEvent{
		{At: 0, Kind: faults.KindCrash, Server: 0},
	}}
	s := &Scenario{Name: "known-bad", Config: cfg}
	rep, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatal("stranded strips passed the invariant checker")
	}
	found := false
	for _, v := range rep.Rows[0].Runs[0].Violations {
		if v.Invariant == "strip-terminal" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no strip-terminal violation; got: %+v", rep.Rows[0].Runs[0].Violations)
	}
	// The same run with retries, a deadline, and graceful degradation
	// passes: every stranded strip now has a typed terminal account.
	cfg.RetryTimeout = 5 * units.Millisecond
	cfg.MaxRetries = 100
	cfg.TransferDeadline = 50 * units.Millisecond
	s2 := &Scenario{Name: "known-bad-recovered", Config: cfg}
	rep2, err := Run(context.Background(), s2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Passed() {
		t.Fatalf("deadline-bound run still violates invariants:\n%s", rep2.Summary())
	}
	if rep2.Rows[0].Runs[0].Result.Faults.PartialOps == 0 && rep2.Rows[0].Runs[0].Result.Faults.FailedOps == 0 {
		t.Error("permanent crash produced neither partial nor failed ops")
	}
}

// TestAssertionFailureFailsScenario: a false assertion turns into a
// reported failure, not a silent pass.
func TestAssertionFailureFailsScenario(t *testing.T) {
	s := &Scenario{
		Name:       "impossible",
		Config:     quickCfg(),
		Assertions: []Assertion{{Metric: "bandwidth_mbps", Op: ">=", Value: 1e9}},
	}
	rep, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatal("impossible assertion passed")
	}
	if sum := rep.Summary(); !strings.Contains(sum, "FAIL") || !strings.Contains(sum, "bandwidth_mbps") {
		t.Errorf("summary does not name the failure:\n%s", sum)
	}
}

// TestCommittedScenarios runs every scenario shipped under scenarios/
// — the same gate `make scenarios` applies in CI, kept inside go test
// so `go test ./...` alone certifies the library.
func TestCommittedScenarios(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 10 {
		t.Fatalf("only %d committed scenarios; the library promises at least 10", len(paths))
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			s, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Passed() {
				t.Fatalf("scenario failed:\n%s", rep.Summary())
			}
		})
	}
}

// TestEveryConfigFieldServesAWorkload: every exported cluster.Config
// field is set by some committed study or scenario file, in its Config
// or a dim value's Config, or by a Go caller listed in goOnly. A field
// nothing sets selects a code path only its own unit test runs: delete
// it with that path, or commit the workload that needs it.
func TestEveryConfigFieldServesAWorkload(t *testing.T) {
	goOnly := map[string]string{ // field → the file that sets it
		"CachePerCore": "perfbench/workloads.go",
		"Progress":     "perfbench/measure.go",
	}
	var paths []string
	for _, dir := range []string{"studies", "scenarios"} {
		m, err := filepath.Glob(filepath.Join("..", "..", dir, "*.json"))
		if err != nil || len(m) == 0 {
			t.Fatalf("%s/*.json matched nothing (%v)", dir, err)
		}
		paths = append(paths, m...)
	}
	set := map[string]string{} // lower-cased field → a file setting it
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Config json.RawMessage
			Dims   []struct{ Values []DimValue }
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		deltas := []json.RawMessage{doc.Config}
		for _, d := range doc.Dims {
			for _, v := range d.Values {
				deltas = append(deltas, v.Config)
			}
		}
		for _, delta := range deltas {
			var fields map[string]json.RawMessage
			if len(delta) > 0 {
				if err := json.Unmarshal(delta, &fields); err != nil {
					t.Fatalf("%s: %v", path, err)
				}
			}
			for name := range fields {
				set[strings.ToLower(name)] = filepath.Base(path)
			}
		}
	}
	typ := reflect.TypeOf(cluster.Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		file, inFiles := set[strings.ToLower(name)]
		_, inGo := goOnly[name]
		switch {
		case !inFiles && !inGo:
			t.Errorf("cluster.Config.%s is set by no study, scenario or listed Go caller", name)
		case inFiles && inGo:
			t.Errorf("cluster.Config.%s is set by %s; drop it from goOnly", name, file)
		}
		delete(goOnly, name)
	}
	for name := range goOnly {
		t.Errorf("goOnly names %s, which is not a cluster.Config field", name)
	}
}
