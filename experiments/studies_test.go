package experiments

// Tests of the study files under studies/: the claims each study makes,
// and a check that every file reproduces the study's committed CSV
// (testdata/studies) with zero invariant violations.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sais/cluster"
	"sais/internal/faults"
	"sais/internal/irqsched"
	"sais/internal/scenario"
	"sais/internal/units"
)

// loadStudy reads studies/<name>.json.
func loadStudy(t *testing.T, name string) *scenario.Study {
	t.Helper()
	st, err := scenario.LoadStudy(filepath.Join("..", "studies", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// runStudy runs st on workers goroutines and fails the test on any
// invariant violation or assertion failure.
func runStudy(t *testing.T, st *scenario.Study, workers int) *scenario.StudyReport {
	t.Helper()
	rep, err := scenario.RunStudy(context.Background(), st, workers)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Errorf("study %s broke invariants or assertions:\n%s", st.Name, rep.Findings())
	}
	return rep
}

// value returns a row's value of the named column.
func value(t *testing.T, rep *scenario.StudyReport, row int, metric string) float64 {
	t.Helper()
	for c, col := range rep.Study.Columns {
		if col.Metric == metric {
			return rep.Rows[row].Values[c]
		}
	}
	t.Fatalf("study %s has no column %s", rep.Study.Name, metric)
	return 0
}

// tinySweep is a reduced degraded study for unit tests: two loss rates
// (0 and 5%), the full policy set, one seed.
func tinySweep(t *testing.T) *scenario.Study {
	st := loadStudy(t, "degraded")
	loss := st.Dims[0].Values
	st.Dims[0].Values = []scenario.DimValue{loss[0], loss[len(loss)-1]}
	st.Seeds = 1
	return st
}

func TestDegradedSweepShapeAndRecovery(t *testing.T) {
	st := tinySweep(t)
	rep := runStudy(t, st, 1)
	if want := 2 * len(st.Policies); len(rep.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), want)
	}
	for i, row := range rep.Rows {
		loss := row.Labels[0]
		retried, dropped := value(t, rep, i, "strips_retried"), value(t, rep, i, "frames_dropped")
		if loss == "0" {
			if retried != 0 || dropped != 0 {
				t.Errorf("%s at 0 loss retried %g strips, dropped %g frames", row.Policy, retried, dropped)
			}
		} else if retried == 0 || dropped == 0 {
			t.Errorf("%s at loss %s shows no fault activity", row.Policy, loss)
		}
		// The acceptance bar: every policy completes at 5% loss with the
		// retry budget — no unaccounted lost operations.
		if f := value(t, rep, i, "failed_ops"); f != 0 {
			t.Errorf("%s at loss %s failed %g ops", row.Policy, loss, f)
		}
		if g := value(t, rep, i, "goodput_fraction"); g != 1 {
			t.Errorf("%s at loss %s goodput %.4f, want 1.0", row.Policy, loss, g)
		}
		mean, p99 := value(t, rep, i, "latency_mean_ms"), value(t, rep, i, "latency_p99_ms")
		if mean <= 0 || p99 < mean {
			t.Errorf("%s latency books inconsistent: mean %.3f p99 %.3f", row.Policy, mean, p99)
		}
	}
	// Loss degrades latency for every policy.
	for i, pol := range st.Policies {
		healthy := value(t, rep, i, "latency_p99_ms")
		lossy := value(t, rep, len(st.Policies)+i, "latency_p99_ms")
		if lossy <= healthy {
			t.Errorf("%s: P99 %.3f at 5%% loss not above healthy %.3f", pol, lossy, healthy)
		}
	}
	table := rep.Table()
	for _, want := range []string{"sais", "irqbalance", "roundrobin", "0.05", "goodput"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	lines := strings.Split(strings.TrimSpace(rep.CSV()), "\n")
	if len(lines) != 1+len(rep.Rows) {
		t.Errorf("csv lines = %d, want header + %d rows", len(lines), len(rep.Rows))
	}
	if !strings.HasPrefix(lines[0], "loss_rate,policy,") {
		t.Errorf("csv header = %q", lines[0])
	}
}

// TestDegradedSweepParallelByteIdentical pins the sweep's determinism:
// worker count must not change a byte of the rendered report.
func TestDegradedSweepParallelByteIdentical(t *testing.T) {
	serial := runStudy(t, tinySweep(t), 1)
	parallel := runStudy(t, tinySweep(t), 6)
	if s, p := serial.CSV(), parallel.CSV(); s != p {
		t.Errorf("parallel CSV differs from serial:\n%s\nvs\n%s", p, s)
	}
}

// TestDegradedSweepValidatesInput covers the error paths.
func TestDegradedSweepValidatesInput(t *testing.T) {
	empty := tinySweep(t)
	empty.Dims[0].Values = nil
	if _, err := scenario.RunStudy(context.Background(), empty, 1); err == nil {
		t.Error("sweep without loss rates ran")
	}
	bad := tinySweep(t)
	bad.Config.Servers = 0
	if _, err := scenario.RunStudy(context.Background(), bad, 1); err == nil {
		t.Error("invalid cell config accepted")
	}
}

// TestChaosScenarioByteIdentical is the experiment-level determinism
// criterion: the crash-and-recover study rendered twice from the same
// (plan, seed) must be byte-identical, table and CSV both.
func TestChaosScenarioByteIdentical(t *testing.T) {
	st := loadStudy(t, "chaos")
	a := runStudy(t, st, 1)
	b := runStudy(t, st, 3) // and worker count must not matter either
	if x, y := a.CSV(), b.CSV(); x != y {
		t.Errorf("chaos CSV diverged across identical runs:\n%s\nvs\n%s", x, y)
	}
	if x, y := a.Table(), b.Table(); x != y {
		t.Errorf("chaos table diverged across identical runs:\n%s\nvs\n%s", x, y)
	}
}

func TestChaosScenarioRecoveryAccounting(t *testing.T) {
	st := loadStudy(t, "chaos")
	rep := runStudy(t, st, 1)
	if len(rep.Rows) != len(st.Policies) {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for i, row := range rep.Rows {
		if c := value(t, rep, i, "crashes"); c != 1 {
			t.Errorf("%s: crashes = %g, want 1", row.Policy, c)
		}
		if d := value(t, rep, i, "downtime_ms"); d != 30 {
			t.Errorf("%s: downtime = %gms, want 30ms", row.Policy, d)
		}
		if value(t, rep, i, "recovery_ms") <= 0 {
			t.Errorf("%s: no recovery time recorded", row.Policy)
		}
		if value(t, rep, i, "strips_retried") == 0 {
			t.Errorf("%s: rode through a 30ms outage without retries", row.Policy)
		}
		if f := value(t, rep, i, "failed_ops"); f != 0 {
			t.Errorf("%s: %g ops failed despite the retry budget", row.Policy, f)
		}
	}
}

// smallGraceful shrinks the graceful study for test turnaround: one
// policy, a 4-server cluster, the same permanent crash, and two
// postures (hard-fail and a 30ms deadline).
func smallGraceful(t *testing.T) *scenario.Study {
	st := loadStudy(t, "graceful")
	st.Policies = []string{"sais"}
	cfg := cluster.DefaultConfig()
	cfg.Servers = 4
	cfg.TransferSize = 256 * units.KiB
	cfg.BytesPerProc = units.MiB
	cfg.RetryTimeout = 5 * units.Millisecond
	cfg.MaxRetries = 6
	cfg.RetryBackoff = 2
	cfg.RetryJitter = 0.1
	cfg.Faults = &faults.Plan{Timeline: []faults.TimelineEvent{
		{At: units.Millisecond, Kind: faults.KindCrash, Server: 0},
	}}
	st.Config = cfg
	st.Dims[0].Values = []scenario.DimValue{
		{Label: "0", Config: json.RawMessage(`{"TransferDeadline": 0}`)},
		{Label: "30", Config: json.RawMessage(`{"TransferDeadline": 30000000}`)},
	}
	return st
}

// TestGracefulDegradationSalvages: the deadline posture converts
// hard failures into partial deliveries — strictly more bytes reach
// the application than under hard-fail, and the partial accounting is
// typed, not silent.
func TestGracefulDegradationSalvages(t *testing.T) {
	rep := runStudy(t, smallGraceful(t), 1)
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	if hard, soft := rep.Rows[0].Labels[0], rep.Rows[1].Labels[0]; hard != "0" || soft == "0" {
		t.Fatalf("row order: %s / %s", hard, soft)
	}
	const hard, soft = 0, 1
	if value(t, rep, hard, "failed_ops") == 0 {
		t.Error("hard-fail posture abandoned nothing; the crash is not biting")
	}
	if p := value(t, rep, hard, "partial_ops"); p != 0 {
		t.Errorf("hard-fail posture reported %g partial ops without a deadline", p)
	}
	if value(t, rep, soft, "partial_ops") == 0 {
		t.Error("deadline posture produced no partial results")
	}
	if value(t, rep, soft, "partial_bytes") == 0 {
		t.Error("partial results salvaged zero bytes")
	}
	if s, h := value(t, rep, soft, "goodput_fraction"), value(t, rep, hard, "goodput_fraction"); s <= h {
		t.Errorf("deadline goodput %.3f not above hard-fail %.3f", s, h)
	}
}

// TestGracefulDeterministicRender: the report is a pure function of
// the study — rendering twice yields byte-identical text.
func TestGracefulDeterministicRender(t *testing.T) {
	r1 := runStudy(t, smallGraceful(t), 1)
	r2 := runStudy(t, smallGraceful(t), 2)
	if r1.Table() != r2.Table() {
		t.Errorf("tables differ across worker counts:\n%s\n---\n%s", r1.Table(), r2.Table())
	}
	if !strings.HasPrefix(r1.CSV(), "deadline_ms,") {
		t.Error("CSV missing header")
	}
	if r1.CSV() != r2.CSV() {
		t.Error("CSV differs across worker counts")
	}
}

// TestNoisyNeighborStudy: load 0 wires no background population at
// all, the analytic engine never serves more than it was offered, and
// background load raises every policy's foreground strip P99.
func TestNoisyNeighborStudy(t *testing.T) {
	st := loadStudy(t, "noisy")
	rep := runStudy(t, st, 2)
	loads := st.Dims[0].Values
	if loads[0].Label != "0" || loads[len(loads)-1].Label != "2" {
		t.Fatalf("load labels %q..%q, want 0..2", loads[0].Label, loads[len(loads)-1].Label)
	}
	for i, row := range rep.Rows {
		offered, served := value(t, rep, i, "background_offered_bytes"), value(t, rep, i, "background_served_bytes")
		if row.Labels[0] == "0" && offered != 0 {
			t.Errorf("%s at load 0 offered %g background bytes", row.Policy, offered)
		}
		if served > offered {
			t.Errorf("%s at load %s served %g of %g offered bytes", row.Policy, row.Labels[0], served, offered)
		}
	}
	n := len(st.Policies)
	for i, pol := range st.Policies {
		quiet := value(t, rep, i, "strip_p99_us")
		loud := value(t, rep, (len(loads)-1)*n+i, "strip_p99_us")
		if loud <= quiet {
			t.Errorf("%s: strip p99 %.1fµs at load 2 not above %.1fµs at load 0", pol, loud, quiet)
		}
	}
}

// TestPolicyMatrixListsRegistry: the matrix covers every registered
// policy in registry order, so a newly registered policy that is not
// added to the file fails here.
func TestPolicyMatrixListsRegistry(t *testing.T) {
	var want []string
	for k := irqsched.PolicyKind(0); ; k++ {
		d, ok := irqsched.Describe(k)
		if !ok {
			break
		}
		want = append(want, d.Name)
	}
	if got := loadStudy(t, "policymatrix").Policies; !reflect.DeepEqual(got, want) {
		t.Errorf("policymatrix policies = %v, want %v", got, want)
	}
}

// studyColumns maps each column of the committed study CSVs onto its
// column in the study report and the factor that converts the report's
// unit to the committed one (ms → ns, µs → ns).
var studyColumns = map[string]struct {
	name  string
	scale float64
}{
	"deadline_ns":      {"deadline_ms", 1e6},
	"duration_ns":      {"duration_ms", 1e6},
	"downtime_ns":      {"downtime_ms", 1e6},
	"recovery_ns":      {"recovery_ms", 1e6},
	"strip_p50_ns":     {"strip_p50_us", 1e3},
	"strip_p95_ns":     {"strip_p95_us", 1e3},
	"strip_p99_ns":     {"strip_p99_us", 1e3},
	"bg_offered_bytes": {"background_offered_bytes", 1},
	"bg_served_bytes":  {"background_served_bytes", 1},
	"goodput":          {"goodput_fraction", 1},
}

// TestStudiesMatchCommittedCSV runs every study file and checks it
// against testdata/studies/<name>.csv, the output of the hand-written
// studies these files replaced (`experiments -<name> -csv -parallel
// 2`): same row order, and every committed cell equal to the new value
// at the committed precision after unit conversion. Every run must
// also pass the invariant checker.
func TestStudiesMatchCommittedCSV(t *testing.T) {
	for _, name := range []string{"degraded", "chaos", "graceful", "noisy", "policymatrix"} {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", "studies", name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			want := csvRows(string(raw))
			got := csvRows(runStudy(t, loadStudy(t, name), 2).CSV())
			if len(got) != len(want) {
				t.Fatalf("rows = %d, want %d", len(got)-1, len(want)-1)
			}
			index := map[string]int{}
			for j, h := range got[0] {
				index[h] = j
			}
			for j, h := range want[0] {
				col, scale := h, 1.0
				if m, ok := studyColumns[h]; ok {
					col, scale = m.name, m.scale
				}
				g, ok := index[col]
				if !ok {
					t.Fatalf("no column %s (for %s) in %v", col, h, got[0])
				}
				for i := 1; i < len(want); i++ {
					if cell := convertCell(t, got[i][g], want[i][j], scale); cell != want[i][j] {
						t.Errorf("row %d %s = %s, want %s", i, h, cell, want[i][j])
					}
				}
			}
		})
	}
}

// csvRows splits a CSV without quoting into cells.
func csvRows(s string) [][]string {
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		rows = append(rows, strings.Split(line, ","))
	}
	return rows
}

// convertCell renders a report cell the way the committed cell ref is
// printed: text cells as they are, numbers scaled and printed with
// ref's number of decimals.
func convertCell(t *testing.T, cell, ref string, scale float64) string {
	t.Helper()
	if _, err := strconv.ParseFloat(ref, 64); err != nil {
		return cell
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q is not a number", cell)
	}
	decimals := 0
	if dot := strings.IndexByte(ref, '.'); dot >= 0 {
		decimals = len(ref) - dot - 1
	}
	return strconv.FormatFloat(v*scale, 'f', decimals, 64)
}
