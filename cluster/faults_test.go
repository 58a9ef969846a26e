package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sais/internal/faults"
	"sais/internal/units"
)

// chaosCfg is a small configuration with a crash-and-recover fault plan
// and enough retry budget to ride through the outage.
func chaosCfg() Config {
	cfg := quickCfg()
	cfg.BytesPerProc = 2 * units.MiB
	cfg.RetryTimeout = 20 * units.Millisecond
	cfg.MaxRetries = 12
	cfg.Faults = &faults.Plan{
		Loss: 0.005,
		Timeline: []faults.TimelineEvent{
			{At: 5 * units.Millisecond, Kind: faults.KindCrash, Server: 0},
			{At: 5 * units.Millisecond, Kind: faults.KindDegradeLink, Factor: 2},
			{At: 35 * units.Millisecond, Kind: faults.KindRevive, Server: 0},
			{At: 35 * units.Millisecond, Kind: faults.KindDegradeLink, Factor: 1},
		},
	}
	return cfg
}

// TestFaultPlanCrashRecoveryDeterministic is the ISSUE's acceptance
// criterion: a crash-and-recover scenario run twice with the same
// (plan, seed) must produce a byte-identical Result.
func TestFaultPlanCrashRecoveryDeterministic(t *testing.T) {
	run := func() []byte {
		res, err := Run(chaosCfg())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("identical (plan, seed) diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestFaultReportRollup runs a plan exercising every injection hook and
// checks each section of Result.Faults is populated and consistent with
// the top-level counters.
func TestFaultReportRollup(t *testing.T) {
	cfg := quickCfg()
	cfg.BytesPerProc = 2 * units.MiB
	cfg.RetryTimeout = 20 * units.Millisecond
	cfg.MaxRetries = 12
	cfg.Faults = &faults.Plan{
		Loss:    0.01,
		Corrupt: 0.02,
		Stalls:  []faults.Stall{{Server: 0, Rate: 0.2, Mean: units.Millisecond}},
		Timeline: []faults.TimelineEvent{
			{At: 2 * units.Millisecond, Kind: faults.KindCrash, Server: 1},
			{At: 20 * units.Millisecond, Kind: faults.KindRevive, Server: 1},
			{At: 4 * units.Millisecond, Kind: faults.KindStormStart, Client: -1,
				Period: 100 * units.Microsecond, Payload: 64},
			{At: 8 * units.Millisecond, Kind: faults.KindStormStop},
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Faults
	if f.FramesDropped == 0 || f.FramesDropped != res.NetDrops {
		t.Errorf("frames dropped = %d (NetDrops %d)", f.FramesDropped, res.NetDrops)
	}
	if f.FramesCorrupted == 0 {
		t.Error("no corrupted frames under 2% corruption")
	}
	if f.HeaderDrops != res.HeaderDrops || f.RingDrops != res.RingDrops {
		t.Errorf("drop mirrors diverged: %+v vs HeaderDrops=%d RingDrops=%d",
			f, res.HeaderDrops, res.RingDrops)
	}
	if f.StallsInjected == 0 {
		t.Error("no stalls injected at rate 0.2")
	}
	if f.Crashes != 1 {
		t.Errorf("crashes = %d, want 1", f.Crashes)
	}
	if len(f.ServerDowntime) != cfg.Servers {
		t.Fatalf("downtime entries = %d, want %d", len(f.ServerDowntime), cfg.Servers)
	}
	if want := 18 * units.Millisecond; f.ServerDowntime[1] != want {
		t.Errorf("server 1 downtime = %v, want %v", f.ServerDowntime[1], want)
	}
	if f.LastReviveAt != 20*units.Millisecond {
		t.Errorf("last revive at %v", f.LastReviveAt)
	}
	if f.RecoveryTime != res.Duration-f.LastReviveAt {
		t.Errorf("recovery time %v with duration %v", f.RecoveryTime, res.Duration)
	}
	if f.StormFrames == 0 {
		t.Error("storm sprayed no frames")
	}
	if f.StripsRetried == 0 {
		t.Error("loss plus a crash triggered no strip retries")
	}
	if f.OfferedBytes != 4*units.MiB {
		t.Errorf("offered bytes = %v, want 4MiB", f.OfferedBytes)
	}
	// The retry budget rides through the outage: everything is delivered.
	if f.GoodputBytes != f.OfferedBytes {
		t.Errorf("goodput %v below offered %v", f.GoodputBytes, f.OfferedBytes)
	}
	if f.FailedOps != res.FailedTransfers {
		t.Errorf("failed ops %d != failed transfers %d", f.FailedOps, res.FailedTransfers)
	}
	if int(f.FailedOps) != len(f.OpErrors) {
		t.Errorf("op errors = %d for %d failed ops", len(f.OpErrors), f.FailedOps)
	}
}

// TestFailedOpsCarryTypedErrors pins satellite #1 at cluster level: a
// permanently dead server must surface every abandoned transfer as a
// typed OpError, and the abandoned operations' time-to-failure must
// appear in the latency books rather than silently vanish.
func TestFailedOpsCarryTypedErrors(t *testing.T) {
	cfg := quickCfg()
	cfg.BytesPerProc = 2 * units.MiB
	cfg.RetryTimeout = 20 * units.Millisecond
	cfg.MaxRetries = 2
	cfg.Faults = &faults.Plan{
		Timeline: []faults.TimelineEvent{{At: 0, Kind: faults.KindCrash, Server: 0}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedTransfers == 0 {
		t.Fatal("no transfers failed against a permanently dead server")
	}
	if len(res.Faults.OpErrors) != int(res.FailedTransfers) {
		t.Fatalf("op errors = %d, want %d", len(res.Faults.OpErrors), res.FailedTransfers)
	}
	for _, e := range res.Faults.OpErrors {
		if e.FailedAt <= e.IssuedAt {
			t.Errorf("op error %v has no elapsed time", e)
		}
		if e.Retries != cfg.MaxRetries {
			t.Errorf("op error retries = %d, want the exhausted budget %d", e.Retries, cfg.MaxRetries)
		}
		if e.Error() == "" {
			t.Error("empty error string")
		}
	}
	if res.Faults.GoodputBytes >= res.Faults.OfferedBytes {
		t.Errorf("goodput %v not below offered %v despite failures",
			res.Faults.GoodputBytes, res.Faults.OfferedBytes)
	}
	// Abandoned reads contribute their time-to-failure, which is at
	// least the full retry budget — the mean cannot sit below it.
	if res.LatencyMean < cfg.RetryTimeout {
		t.Errorf("latency mean %v below one retry timeout; failures dropped from the books", res.LatencyMean)
	}
}

// TestInvalidFaultPlanRejected checks plan validation runs inside
// Config.Validate with the config's shape.
func TestInvalidFaultPlanRejected(t *testing.T) {
	plans := []*faults.Plan{
		{Loss: -0.1},
		{Corrupt: 1.5},
		{Stalls: []faults.Stall{{Server: 99, Rate: 0.5, Mean: units.Millisecond}}},
		{Timeline: []faults.TimelineEvent{{At: 0, Kind: faults.KindCrash, Server: 99}}},
		{Timeline: []faults.TimelineEvent{{At: 0, Kind: faults.KindStormStart, Period: units.Microsecond, Client: 5}}},
		{Timeline: []faults.TimelineEvent{{At: 0, Kind: "meteor"}}},
	}
	for i, p := range plans {
		cfg := quickCfg()
		cfg.Faults = p
		if _, err := Run(cfg); err == nil {
			t.Errorf("plan %d accepted: %+v", i, p)
		}
	}
}

// TestConfigFaultPlanRoundTrip saves and reloads a config carrying a
// full fault plan and checks nothing is lost or reordered.
func TestConfigFaultPlanRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = &faults.Plan{
		Loss:    0.02,
		Corrupt: 0.001,
		Stalls:  []faults.Stall{{Server: -1, Rate: 0.1, Mean: 2 * units.Millisecond, Jitter: units.Millisecond}},
		Timeline: []faults.TimelineEvent{
			{At: units.Millisecond, Kind: faults.KindCrash, Server: 3},
			{At: 2 * units.Millisecond, Kind: faults.KindDegradeLink, Factor: 4},
			{At: 5 * units.Millisecond, Kind: faults.KindRevive, Server: 3},
			{At: 6 * units.Millisecond, Kind: faults.KindStormStart, Client: -1,
				Period: 50 * units.Microsecond, Payload: 128},
			{At: 7 * units.Millisecond, Kind: faults.KindStormStop},
		},
	}
	path := t.TempDir() + "/chaos.json"
	if err := SaveConfig(path, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Faults, cfg.Faults) {
		t.Errorf("plan round trip diverged:\n%+v\nvs\n%+v", got.Faults, cfg.Faults)
	}
}

// TestReadConfigFaultPlanTable is the satellite hardening check:
// unknown fields anywhere inside the nested plan are rejected, and so
// are out-of-range probabilities and malformed timelines — a config
// file cannot smuggle in a fault spec the injector would choke on.
func TestReadConfigFaultPlanTable(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		wantErr bool
	}{
		{"empty plan", `{"Faults": {}}`, false},
		{"null plan", `{"Faults": null}`, false},
		{"valid loss", `{"Faults": {"Loss": 0.05}}`, false},
		{"valid timeline", `{"Faults": {"Timeline": [
			{"At": 1000, "Kind": "crash", "Server": 0},
			{"At": 2000, "Kind": "revive", "Server": 0}]}}`, false},
		{"unknown plan field", `{"Faults": {"Bogus": 1}}`, true},
		{"unknown stall field", `{"Faults": {"Stalls": [{"Srv": 0}]}}`, true},
		{"unknown event field", `{"Faults": {"Timeline": [{"Att": 5}]}}`, true},
		{"negative loss", `{"Faults": {"Loss": -0.5}}`, true},
		{"loss of one", `{"Faults": {"Loss": 1}}`, true},
		{"negative corrupt", `{"Faults": {"Corrupt": -1}}`, true},
		{"stall rate above one", `{"Faults": {"Stalls": [{"Server": 0, "Rate": 2}]}}`, true},
		{"negative stall mean", `{"Faults": {"Stalls": [{"Server": 0, "Rate": 0.5, "Mean": -1}]}}`, true},
		{"crash out of range", `{"Faults": {"Timeline": [{"Kind": "crash", "Server": 99}]}}`, true},
		{"event at negative time", `{"Faults": {"Timeline": [{"At": -1, "Kind": "crash", "Server": 0}]}}`, true},
		{"unterminated storm", `{"Faults": {"Timeline": [{"Kind": "storm-start", "Period": 1000}]}}`, true},
		{"zero degrade factor", `{"Faults": {"Timeline": [{"Kind": "degrade-link", "Factor": 0}]}}`, true},
		{"unknown kind", `{"Faults": {"Timeline": [{"Kind": "meteor"}]}}`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadConfig(strings.NewReader(tc.src))
			if tc.wantErr && err == nil {
				t.Errorf("accepted %s", tc.src)
			}
			if !tc.wantErr && err != nil {
				t.Errorf("rejected %s: %v", tc.src, err)
			}
		})
	}
}
