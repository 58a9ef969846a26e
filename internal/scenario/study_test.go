package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sais/cluster"
	"sais/internal/faults"
	"sais/internal/flowsim"
	"sais/internal/irqsched"
	"sais/internal/metrics"
	"sais/internal/units"
)

// quickStudy is a 2 × 2 grid over quickCfg under two policies and two
// seeds, with one averaged and one summed column.
const quickStudy = `{
  "Name": "quick",
  "Config": {"Clients": 2, "Servers": 4, "CoresPerClient": 4, "ProcsPerClient": 2,
             "TransferSize": 262144, "BytesPerProc": 1048576, "RetryTimeout": 5000000, "MaxRetries": 20},
  "Policies": ["sais", "irqbalance"],
  "Dims": [
    {"Name": "servers", "Values": [{"Label": "4"}, {"Label": "2", "Config": {"Servers": 2}}]},
    {"Name": "loss", "Values": [{"Label": "0"}, {"Label": "0.02", "Config": {"Faults": {"Loss": 0.02}}}]}
  ],
  "Seeds": 2,
  "Columns": [{"Metric": "bandwidth_mbps"}, {"Metric": "strips_retried", "Stat": "sum"}]
}`

func readStudy(t *testing.T, text string) *Study {
	t.Helper()
	s, err := ReadStudy(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunStudyGridOrderAndFolding: rows come point-outer (first dim
// outermost), policy-inner, and each value is the mean (or sum) of the
// same cluster runs made by hand under seeds 1..Seeds.
func TestRunStudyGridOrderAndFolding(t *testing.T) {
	s := readStudy(t, quickStudy)
	rep, err := RunStudy(context.Background(), s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("findings:\n%s", rep.Findings())
	}
	var got []string
	for _, row := range rep.Rows {
		got = append(got, strings.Join(append(row.Labels, row.Policy), "/"))
	}
	want := []string{
		"4/0/sais", "4/0/irqbalance", "4/0.02/sais", "4/0.02/irqbalance",
		"2/0/sais", "2/0/irqbalance", "2/0.02/sais", "2/0.02/irqbalance",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("row order %v, want %v", got, want)
	}
	row := rep.Rows[6] // servers=2, loss=0.02, sais
	cfg := s.Config
	cfg.Servers, cfg.Faults, cfg.Policy = 2, &faults.Plan{Loss: 0.02}, irqsched.PolicySourceAware
	var bw metrics.Summary
	var retried float64
	for seed := uint64(1); seed <= 2; seed++ {
		cfg.Seed = seed
		res, err := cluster.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bw.Add(float64(res.Bandwidth) / float64(units.MBps))
		retried += float64(res.Faults.StripsRetried)
	}
	if row.Values[0] != bw.Mean() || row.Values[1] != retried {
		t.Errorf("cell = %v, want [%v %v] from hand-made runs", row.Values, bw.Mean(), retried)
	}
	if retried == 0 {
		t.Error("lossy cell retried nothing; the summed column is not exercised")
	}
	serial, err := RunStudy(context.Background(), s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if serial.CSV() != rep.CSV() || serial.Table() != rep.Table() {
		t.Error("report differs across worker counts")
	}
	if h := strings.SplitN(rep.CSV(), "\n", 2)[0]; h != "servers,loss,policy,bandwidth_mbps,strips_retried" {
		t.Errorf("csv header = %q", h)
	}
}

// TestStudyReadRejects: every malformed study is a *StudyError from
// ReadStudy, never a panic.
func TestStudyReadRejects(t *testing.T) {
	const base = `{"Name": "bad", "Config": {"Servers": 4}, %s}`
	cases := map[string]string{
		"unknown field":       `"Dimz": [], "Columns": [{"Metric": "retries"}]`,
		"unknown delta field": `"Dims": [{"Name": "d", "Values": [{"Label": "x", "Config": {"Serverz": 2}}]}], "Columns": [{"Metric": "retries"}]`,
		"unknown column":      `"Columns": [{"Metric": "goodness"}]`,
		"no columns":          `"Seeds": 1`,
		"unknown policy":      `"Policies": ["nope"], "Columns": [{"Metric": "retries"}]`,
		"empty values":        `"Dims": [{"Name": "d", "Values": []}], "Columns": [{"Metric": "retries"}]`,
		"unlabelled value":    `"Dims": [{"Name": "d", "Values": [{}]}], "Columns": [{"Metric": "retries"}]`,
		"dim named policy":    `"Dims": [{"Name": "policy", "Values": [{"Label": "x"}]}], "Columns": [{"Metric": "retries"}]`,
		"negative seeds":      `"Seeds": -1, "Columns": [{"Metric": "retries"}]`,
		"invalid point":       `"Dims": [{"Name": "d", "Values": [{"Label": "ok"}, {"Label": "none", "Config": {"Servers": 0}}]}], "Columns": [{"Metric": "retries"}]`,
		"malformed json":      `"Columns": [`,
		"unknown stat":        `"Policies": ["sais", "irqbalance"], "Columns": [{"Metric": "retries", "Stat": "median"}]`,
		"change one policy":   `"Policies": ["sais"], "Columns": [{"Metric": "retries", "Stat": "change"}]`,
		"change no policies":  `"Columns": [{"Metric": "retries", "Stat": "change"}]`,
		"leftover sum":        `"Columns": [{"Metric": "retries", "Sum": true}]`,
		"dim sets seed":       `"Dims": [{"Name": "seed", "Values": [{"Label": "1", "Config": {"Seed": 1}}, {"Label": "9", "Config": {"Seed": 9}}, {"Label": "77", "Config": {"Seed": 77}}]}], "Columns": [{"Metric": "retries"}]`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ReadStudy(strings.NewReader(strings.Replace(base, "%s", body, 1)))
			var se *StudyError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v (%T), want *StudyError", err, err)
			}
		})
	}
}

// TestStudyDeltaDoesNotAlias: a delta that writes the tenant mix or the
// fault plan changes only its own point — not a sibling, not the base.
func TestStudyDeltaDoesNotAlias(t *testing.T) {
	s := &Study{
		Scenario: Scenario{Name: "alias", Config: quickCfg()},
		Dims: []Dim{{Name: "d", Values: []DimValue{
			{Label: "writes", Config: json.RawMessage(`{
				"TenantMix": [{"Name": "x", "Share": 1, "PerUserRate": 999}],
				"Faults": {"Loss": 0.5, "Timeline": [{"At": 7, "Kind": "crash", "Server": 3}]}}`)},
			{Label: "sibling"},
		}}},
		Columns: []Column{{Metric: "retries"}},
	}
	s.Config.BackgroundUsers = 1000
	s.Config.TenantMix = []flowsim.TenantShare{{Name: "base", Share: 1, PerUserRate: 10}}
	s.Config.Faults = &faults.Plan{Timeline: []faults.TimelineEvent{
		{At: units.Millisecond, Kind: faults.KindCrash, Server: 0},
	}}
	before := s.Config
	before.TenantMix = append([]flowsim.TenantShare(nil), s.Config.TenantMix...)
	before.Faults = s.Config.Faults.Clone()

	pts, err := s.points()
	if err != nil {
		t.Fatal(err)
	}
	if w := pts[0].cfg; w.TenantMix[0].PerUserRate != 999 || w.Faults.Loss != 0.5 || w.Faults.Timeline[0].Server != 3 {
		t.Fatalf("delta not applied: mix %+v faults %+v", w.TenantMix, w.Faults)
	}
	if !reflect.DeepEqual(pts[1].cfg, before) {
		t.Errorf("sibling point changed:\n%+v\nwant\n%+v", pts[1].cfg, before)
	}
	if !reflect.DeepEqual(s.Config, before) {
		t.Errorf("base config changed:\n%+v\nwant\n%+v", s.Config, before)
	}
}

// TestRunStudyChangeAndCI95: a change column is 0 on the first
// policy's rows and metrics.Speedup of the two policies' means
// elsewhere; a ci95 column is the means' confidence half-width.
func TestRunStudyChangeAndCI95(t *testing.T) {
	s := readStudy(t, quickStudy)
	s.Dims = s.Dims[:1]
	s.Columns = []Column{{Metric: "bandwidth_mbps"}, {Metric: "bandwidth_mbps", Stat: "change"},
		{Metric: "cache_miss_rate"}, {Metric: "cache_miss_rate", Stat: "change"}, {Metric: "bandwidth_mbps", Stat: "ci95"}}
	rep, err := RunStudy(context.Background(), s, 2)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < len(rep.Rows); r += 2 {
		base, treat := rep.Rows[r].Values, rep.Rows[r+1].Values
		if base[1] != 0 || base[3] != 0 {
			t.Errorf("first-policy row %v: change %v, %v, want 0", rep.Rows[r].Labels, base[1], base[3])
		}
		if want := metrics.Speedup(treat[0], base[0]); treat[1] != want || want == 0 {
			t.Errorf("bandwidth change %v, want %v", treat[1], want)
		}
		if want := metrics.Speedup(treat[2], base[2]); treat[3] != want || want == 0 {
			t.Errorf("miss-rate change %v, want %v", treat[3], want)
		}
		var bw metrics.Summary
		for _, run := range rep.Rows[r].Runs {
			bw.Add(float64(run.Result.Bandwidth) / float64(units.MBps))
		}
		if base[4] != bw.CI95() {
			t.Errorf("ci95 %v, want %v", base[4], bw.CI95())
		}
	}
	if h := strings.SplitN(rep.CSV(), "\n", 2)[0]; h != "servers,policy,bandwidth_mbps,bandwidth_mbps_change,cache_miss_rate,cache_miss_rate_change,bandwidth_mbps_ci95" {
		t.Errorf("csv header = %q", h)
	}
}

// TestStudyPolicyFromDim: a study without Policies runs each point
// under its own config's policy, so a dim value can set it.
func TestStudyPolicyFromDim(t *testing.T) {
	s := &Study{
		Scenario: Scenario{Name: "perpoint", Config: quickCfg()},
		Dims: []Dim{{Name: "steering", Values: []DimValue{
			{Label: "a", Config: json.RawMessage(`{"Policy": "sais"}`)},
			{Label: "b", Config: json.RawMessage(`{"Policy": "flowhash"}`)},
		}}},
		Columns: []Column{{Metric: "hinted_fraction"}},
	}
	rep, err := RunStudy(context.Background(), s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := rep.Rows[0].Policy, rep.Rows[1].Policy; a != "sais" || b != "flowhash" {
		t.Errorf("policies %s, %s, want sais, flowhash", a, b)
	}
	if h := rep.Rows[0].Values[0]; h == 0 {
		t.Error("the sais point steered no hinted interrupts")
	}
}

// TestFirstCellErrorCancelsRest pins the error path: the first failing
// run stops the study, no queued run starts, and the report carries
// exactly the rows that finished before the failure.
func TestFirstCellErrorCancelsRest(t *testing.T) {
	s := readStudy(t, quickStudy)
	s.Seeds = 1
	pts, err := s.points()
	if err != nil {
		t.Fatal(err)
	}
	pts[1].cfg.Servers = 0 // fails cluster validation when it runs
	rep, err := s.runPoints(context.Background(), pts, 1)
	if err == nil {
		t.Fatal("study with a failing point succeeded")
	}
	if !strings.Contains(err.Error(), "loss=0.02") {
		t.Errorf("error %q does not name the failing point", err)
	}
	var got []string
	for _, row := range rep.Rows {
		got = append(got, strings.Join(append(row.Labels, row.Policy), "/"))
	}
	if want := []string{"4/0/sais", "4/0/irqbalance"}; !reflect.DeepEqual(got, want) {
		t.Errorf("partial rows %v, want %v", got, want)
	}
}

// TestPaperStudiesRunEachSimulationOnce: across the paper's study
// files (`saisim run`'s default list) no (config, policy, seed) run
// appears twice.
func TestPaperStudiesRunEachSimulationOnce(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "studies", "paper-*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no paper study files (%v)", err)
	}
	seen := map[string]string{}
	for _, f := range files {
		s, err := LoadStudy(f)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := s.points()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			sc := s.Scenario
			sc.Config = p.cfg
			policies, err := sc.policyKinds()
			if err != nil {
				t.Fatal(err)
			}
			for _, pol := range policies {
				for seed := 1; seed <= max(s.Seeds, 1); seed++ {
					sc.Config.Seed = uint64(seed)
					cfg, err := sc.materialize(pol)
					if err != nil {
						t.Fatal(err)
					}
					key, err := json.Marshal(cfg)
					if err != nil {
						t.Fatal(err)
					}
					run := fmt.Sprintf("%s %s %s seed %d", s.Name, p.name, pol, seed)
					if prev, dup := seen[string(key)]; dup {
						t.Errorf("%s repeats %s", run, prev)
					}
					seen[string(key)] = run
				}
			}
		}
	}
	if len(seen) != 348 {
		t.Errorf("the paper runs %d simulations, want 348", len(seen))
	}
}

// TestParseSweepRejects: every malformed inline-dim argument list is a
// *StudyError from ParseSweep, never a panic.
func TestParseSweepRejects(t *testing.T) {
	cases := map[string][]string{
		"empty":           {""},
		"no values":       {"servers"},
		"no name":         {"=8"},
		"empty list":      {"servers="},
		"empty value":     {"servers=8,,16"},
		"unknown field":   {"bogus=1"},
		"not json":        {"servers=eight"},
		"unknown policy":  {"policy=bogus"},
		"policy twice":    {"policy=sais", "policy=irqbalance"},
		"seed dim":        {"seed=1,2"},
		"trailing json":   {"servers=8}"},
		"study file":      {"servers=4,8", "studies/degraded.json"},
		"dim named twice": {"servers=4", "servers=8"},
		"invalid point":   {"servers=0"},
		"unbalanced json": {`faults={"Loss":0.01`},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ParseSweep(cluster.DefaultConfig(), args)
			var se *StudyError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v (%T), want *StudyError", err, err)
			}
		})
	}
}

// TestParseSweepMatchesStudyFile: inline dims, a dotted path included,
// report exactly what the equivalent hand-written study reports, for
// any worker count.
func TestParseSweepMatchesStudyFile(t *testing.T) {
	inline, err := ParseSweep(cluster.DefaultConfig(), []string{"bytesperproc=1048576", "transfersize=262144",
		"servers=2,4", "costs.remoteline=100,400", "policy=irqbalance,sais"})
	if err != nil {
		t.Fatal(err)
	}
	file := readStudy(t, `{
  "Name": "by-hand",
  "Config": {"BytesPerProc": 1048576, "TransferSize": 262144},
  "Policies": ["irqbalance", "sais"],
  "Dims": [
    {"Name": "bytesperproc", "Values": [{"Label": "1048576"}]},
    {"Name": "transfersize", "Values": [{"Label": "262144"}]},
    {"Name": "servers", "Values": [{"Label": "2", "Config": {"Servers": 2}}, {"Label": "4", "Config": {"Servers": 4}}]},
    {"Name": "costs.remoteline", "Values": [{"Label": "100", "Config": {"Costs": {"RemoteLine": 100}}},
                                            {"Label": "400", "Config": {"Costs": {"RemoteLine": 400}}}]}
  ],
  "Columns": [{"Metric": "bandwidth_mbps"}, {"Metric": "cache_miss_rate"}, {"Metric": "cpu_utilization"},
              {"Metric": "unhalted_cycles"}, {"Metric": "remote_lines"}, {"Metric": "client_nic_busy"},
              {"Metric": "disk_busy"}]
}`)
	var csv [2]string
	for i, s := range []*Study{inline, file} {
		rep, err := RunStudy(context.Background(), s, 1+i) // serial and parallel
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() {
			t.Fatalf("%s findings:\n%s", s.Name, rep.Findings())
		}
		csv[i] = rep.CSV()
	}
	if csv[0] != csv[1] {
		t.Errorf("inline CSV\n%s\ndiffers from the study file's\n%s", csv[0], csv[1])
	}
	if rows := strings.Count(csv[0], "\n"); rows != 9 {
		t.Errorf("%d CSV lines, want a header and 8 rows", rows)
	}
	pts, err := inline.points()
	if err != nil {
		t.Fatal(err)
	}
	if last := pts[len(pts)-1].cfg; last.Servers != 4 || last.Costs.RemoteLine != 400 {
		t.Errorf("last point has %d servers and RemoteLine %v, want 4 and 400", last.Servers, last.Costs.RemoteLine)
	}
}

// TestParseSweepExpands: dims expand first-outermost over an untouched
// default config, policy=... fills Policies, and a policy list alone
// is one point.
func TestParseSweepExpands(t *testing.T) {
	s, err := ParseSweep(cluster.DefaultConfig(), []string{"servers=8,16,32", "policy=irqbalance,sais", "randomaccess=false,true"})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Dims) != 2 || s.Dims[0].Name != "servers" || len(s.Dims[0].Values) != 3 || s.Dims[0].Values[2].Label != "32" {
		t.Fatalf("dims = %+v", s.Dims)
	}
	if !reflect.DeepEqual(s.Policies, []string{"irqbalance", "sais"}) {
		t.Errorf("policies = %v", s.Policies)
	}
	pts, err := s.points()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pts {
		got = append(got, fmt.Sprintf("%d/%t", p.cfg.Servers, p.cfg.RandomAccess))
	}
	if want := []string{"8/false", "8/true", "16/false", "16/true", "32/false", "32/true"}; !reflect.DeepEqual(got, want) {
		t.Errorf("points %v, want %v", got, want)
	}
	if !reflect.DeepEqual(s.Config, cluster.DefaultConfig()) {
		t.Error("the study's base config is not cluster.DefaultConfig")
	}
	one, err := ParseSweep(cluster.DefaultConfig(), []string{"policy=sais"})
	if err != nil {
		t.Fatal(err)
	}
	if pts, err := one.points(); err != nil || len(pts) != 1 {
		t.Errorf("policy-only sweep = %d points, %v", len(pts), err)
	}
}

// TestParseSweepAppliesConfigFields: a value reaches its field through
// the field's JSON spelling, in any case and nested by dots.
func TestParseSweepAppliesConfigFields(t *testing.T) {
	s, err := ParseSweep(cluster.DefaultConfig(), []string{"TransferSize=524288", "clientnicrate=125000000", "migrateduringblock=0.25",
		"SHAREDFILES=true", "timeslicequantum=2000000", "costs.remoteline=300", "disk.elevatorwindow=4",
		`faults={"Loss":0.01,"Corrupt":0.001}`, "backgroundusers=1000", "seed=5",
		`tenantmix=[{"Name":"a","Share":0.5,"PerUserRate":4096},{"Name":"b","Share":0.5,"PerUserRate":8192,"Colocate":0.2}]`})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := s.points()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Dims) != 10 {
		t.Errorf("%d dims, want 10: seed sets the base config", len(s.Dims))
	}
	cfg := pts[0].cfg
	want := cluster.DefaultConfig()
	want.TransferSize, want.ClientNICRate, want.MigrateDuringBlock = 512*units.KiB, units.Gigabit, 0.25
	want.SharedFiles, want.TimesliceQuantum, want.Costs.RemoteLine = true, 2*units.Millisecond, 300
	want.Disk.ElevatorWindow = 4
	want.Faults, want.BackgroundUsers, want.Seed = &faults.Plan{Loss: 0.01, Corrupt: 0.001}, 1000, 5
	want.TenantMix = []flowsim.TenantShare{{Name: "a", Share: 0.5, PerUserRate: 4096},
		{Name: "b", Share: 0.5, PerUserRate: 8192, Colocate: 0.2}}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("point config\n%+v\nwant\n%+v", cfg, want)
	}
}
