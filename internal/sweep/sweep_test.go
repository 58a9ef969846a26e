// Package sweep checks ad-hoc sweeps end to end: the inline dims that
// `saisim run` takes (servers=4,8 policy=irqbalance,sais) parsed by
// scenario.ParseSweep and run by scenario.RunStudy, through their
// exported API only. The package has no non-test code.
package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sais/cluster"
	"sais/internal/irqsched"
	"sais/internal/scenario"
	"sais/internal/units"
)

func parse(t *testing.T, args ...string) *scenario.Study {
	t.Helper()
	s, err := scenario.ParseSweep(cluster.DefaultConfig(), args)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func run(t *testing.T, s *scenario.Study, workers int) *scenario.StudyReport {
	t.Helper()
	rep, err := scenario.RunStudy(context.Background(), s, workers)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("findings:\n%s", rep.Findings())
	}
	return rep
}

// smallArgs is a fast 2 × 2 sweep for the orchestration tests.
var smallArgs = []string{"bytesperproc=1048576", "servers=4,8", "policy=irqbalance,sais"}

var policyKinds = map[string]irqsched.PolicyKind{
	"irqbalance": irqsched.PolicyIrqbalance,
	"sais":       irqsched.PolicySourceAware,
}

// TestProductExpands: every (value, policy) pair is one row, values
// outermost, each value's delta sets its field over the default config,
// each row runs its own policy, and the base config stays the default.
func TestProductExpands(t *testing.T) {
	s := parse(t, "bytesperproc=1048576", "servers=8,16", "policy=irqbalance,sais")
	if len(s.Dims) != 2 || len(s.Dims[1].Values) != 2 || !reflect.DeepEqual(s.Policies, []string{"irqbalance", "sais"}) {
		t.Fatalf("dims %+v, policies %v", s.Dims, s.Policies)
	}
	for i, want := range []int{8, 16} {
		cfg := cluster.DefaultConfig()
		if err := json.Unmarshal(s.Dims[1].Values[i].Config, &cfg); err != nil {
			t.Fatal(err)
		}
		if cfg.Servers != want {
			t.Errorf("value %q sets %d servers, want %d", s.Dims[1].Values[i].Label, cfg.Servers, want)
		}
	}
	rep := run(t, s, 2)
	var got []string
	for _, row := range rep.Rows {
		got = append(got, strings.Join(append(row.Labels[1:], row.Policy), "/"))
		if res := row.Runs[0].Result; res.Policy != row.Policy {
			t.Errorf("row %v ran policy %q", got[len(got)-1], res.Policy)
		}
	}
	if want := []string{"8/irqbalance", "8/sais", "16/irqbalance", "16/sais"}; !reflect.DeepEqual(got, want) {
		t.Errorf("rows %v, want %v", got, want)
	}
	if !reflect.DeepEqual(s.Config, cluster.DefaultConfig()) {
		t.Error("the sweep changed its base config")
	}
}

// TestProductNoDims: a sweep with no dims is one point, run once per
// policy.
func TestProductNoDims(t *testing.T) {
	s := parse(t, "policy=sais")
	if len(s.Dims) != 0 {
		t.Fatalf("dims = %+v", s.Dims)
	}
	if rep := run(t, s, 1); len(rep.Rows) != 1 || rep.Rows[0].Policy != "sais" {
		t.Errorf("policy-only sweep = %d rows", len(rep.Rows))
	}
}

// TestCSVEndToEnd: the CSV names the dims, then the policy, then the
// seven sweep columns, and every row has a value for each.
func TestCSVEndToEnd(t *testing.T) {
	rep := run(t, parse(t, "bytesperproc=4194304", "servers=8", "policy=irqbalance,sais"), 2)
	lines := strings.Split(strings.TrimSuffix(rep.CSV(), "\n"), "\n")
	const header = "bytesperproc,servers,policy,bandwidth_mbps,cache_miss_rate,cpu_utilization," +
		"unhalted_cycles,remote_lines,client_nic_busy,disk_busy"
	if lines[0] != header {
		t.Errorf("header = %q, want %q", lines[0], header)
	}
	if len(lines) != 3 {
		t.Fatalf("%d CSV lines, want a header and 2 rows", len(lines))
	}
	for i, policy := range []string{"irqbalance", "sais"} {
		cells := strings.Split(lines[i+1], ",")
		if len(cells) != strings.Count(header, ",")+1 {
			t.Errorf("row has %d columns, header %d: %q", len(cells), strings.Count(header, ",")+1, lines[i+1])
			continue
		}
		if prefix := "4194304,8," + policy; strings.Join(cells[:3], ",") != prefix {
			t.Errorf("row = %q, want prefix %q", lines[i+1], prefix)
		}
		for _, c := range cells[3:] {
			if _, err := strconv.ParseFloat(c, 64); err != nil {
				t.Errorf("row %q: %v", lines[i+1], err)
			}
		}
		if bw, _ := strconv.ParseFloat(cells[3], 64); bw <= 0 {
			t.Errorf("row %q reports no bandwidth", lines[i+1])
		}
	}
}

// TestRowsParallelMatchesSerial: the report is the same for one worker
// and four, and each row's bandwidth is that of the same config run by
// hand.
func TestRowsParallelMatchesSerial(t *testing.T) {
	serial := run(t, parse(t, smallArgs...), 1)
	if len(serial.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(serial.Rows))
	}
	for _, row := range serial.Rows {
		cfg := cluster.DefaultConfig()
		cfg.BytesPerProc = 1 * units.MiB
		cfg.Servers, _ = strconv.Atoi(row.Labels[1])
		cfg.Policy = policyKinds[row.Policy]
		cfg.Seed = 1
		res, err := cluster.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(res.Bandwidth) / float64(units.MBps); row.Values[0] != want {
			t.Errorf("row %v/%s bandwidth %v, want %v from a hand-made run", row.Labels, row.Policy, row.Values[0], want)
		}
	}
	parallel := run(t, parse(t, smallArgs...), 4)
	if parallel.CSV() != serial.CSV() {
		t.Errorf("parallel CSV\n%s\ndiffers from serial\n%s", parallel.CSV(), serial.CSV())
	}
}

// TestRowsCancelled: a sweep under a cancelled context stops with
// context.Canceled and reports no row.
func TestRowsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := scenario.RunStudy(ctx, parse(t, smallArgs...), 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil && len(rep.Rows) != 0 {
		t.Errorf("%d rows after a pre-cancelled context", len(rep.Rows))
	}
}
