package experiments

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sais/internal/metrics"
	"sais/internal/scenario"
	"sais/internal/units"
)

// TestAllFiguresDefined is the shape of the paper's study files: the
// four files in paper order, each described, averaging at least three
// seeds as the paper does, with the invariant checker on.
func TestAllFiguresDefined(t *testing.T) {
	var names []string
	for _, f := range paperFiles(t) {
		st, err := scenario.LoadStudy(f)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, st.Name)
		if st.Description == "" {
			t.Errorf("%s has no description", st.Name)
		}
		if st.Seeds < 3 {
			t.Errorf("%s averages %d seeds; the paper used at least 3", st.Name, st.Seeds)
		}
		if st.SkipInvariants {
			t.Errorf("%s skips the invariant checker", st.Name)
		}
	}
	if want := []string{grid, multi, ramdisk, extensions}; !reflect.DeepEqual(names, want) {
		t.Errorf("paper studies %v, want %v", names, want)
	}
}

// TestByID: each paper study is named after its file, so a study name
// resolves to its file, and an unknown name resolves to nothing.
func TestByID(t *testing.T) {
	for _, f := range paperFiles(t) {
		want := strings.TrimSuffix(filepath.Base(f), ".json")
		if st := loadStudy(t, want); st.Name != want {
			t.Errorf("%s: study named %q", f, st.Name)
		}
	}
	if _, err := scenario.LoadStudy(filepath.Join("..", "studies", "paper-99.json")); err == nil {
		t.Error("unknown study name resolved")
	}
}

// TestGridShape: the Figure 5-11 grid is NIC × 4 transfer sizes × 4
// server counts under irqbalance and SAIs.
func TestGridShape(t *testing.T) {
	st := loadStudy(t, grid)
	var dims, labels []string
	for _, d := range st.Dims {
		dims = append(dims, d.Name)
		for _, v := range d.Values {
			labels = append(labels, v.Label)
		}
	}
	if want := []string{"nic", "transfer", "servers"}; !reflect.DeepEqual(dims, want) {
		t.Errorf("grid dims %v, want %v", dims, want)
	}
	if want := []string{"1G", "3G", "128KiB", "512KiB", "1MiB", "2MiB", "8", "16", "32", "48"}; !reflect.DeepEqual(labels, want) {
		t.Errorf("grid labels %v, want %v", labels, want)
	}
	if want := []string{"irqbalance", "sais"}; !reflect.DeepEqual(st.Policies, want) {
		t.Errorf("grid policies %v, want %v", st.Policies, want)
	}
	// Each transfer size appears with each server count.
	tb := csvTable(t, paper(t, grid))
	for _, key := range []string{"3G/128KiB/8/sais", "3G/2MiB/48/sais", "1G/1MiB/32/irqbalance"} {
		if _, ok := tb[key]; !ok {
			t.Errorf("grid has no row %q", key)
		}
	}
	if len(tb) != 2*4*4*2 {
		t.Errorf("grid has %d rows, want %d (2 NICs × 4 transfers × 4 servers × 2 policies)", len(tb), 2*4*4*2)
	}
}

// TestEvalConfigScale: the single-client files read enough bytes per
// process to reach steady state.
func TestEvalConfigScale(t *testing.T) {
	for _, name := range []string{grid, extensions} {
		if b := loadStudy(t, name).Config.BytesPerProc; b < 16*units.MiB {
			t.Errorf("%s: per-proc budget %v too small for steady state", name, b)
		}
	}
}

// TestMetricDirections pins the change columns' sign convention: the
// change is SAIs' signed relative change against irqbalance, so a
// higher bandwidth reads positive and a lower miss rate or cycle count
// negative, and irqbalance's own rows read 0.
func TestMetricDirections(t *testing.T) {
	tb := csvTable(t, paper(t, grid))
	for _, m := range []string{"bandwidth_mbps", "cache_miss_rate", "cpu_utilization", "unhalted_cycles"} {
		for key := range tb {
			point, ok := strings.CutSuffix(key, "/sais")
			if !ok {
				continue
			}
			base := point + "/irqbalance"
			if c := tb.num(t, base, m+"_change"); c != 0 {
				t.Errorf("%s %s change %v, want 0", base, m, c)
			}
			want := metrics.Speedup(tb.num(t, key, m), tb.num(t, base, m))
			if got := tb.num(t, key, m+"_change"); got != want {
				t.Errorf("%s %s change %v, want %v", key, m, got, want)
			}
		}
	}
	if c := tb.num(t, "3G/1MiB/16/sais", "bandwidth_mbps_change"); c <= 0 {
		t.Errorf("bandwidth change %v not positive", c)
	}
	if c := tb.num(t, "3G/1MiB/16/sais", "cache_miss_rate_change"); c >= 0 {
		t.Errorf("miss-rate change %v not negative", c)
	}
}

// changes returns SAIs' change of metric over the servers of one
// NIC's 1 MiB row of the grid.
func changes(t *testing.T, nic, metric string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, ns := range []string{"8", "16", "32", "48"} {
		out[ns] = cell(t, grid, nic+"/1MiB/"+ns+"/sais", metric+"_change")
	}
	return out
}

func peak(m map[string]float64) float64 {
	best := math.Inf(-1)
	for _, v := range m {
		best = max(best, v)
	}
	return best
}

func TestFigure5SAIsWinsEverywhere(t *testing.T) {
	row := changes(t, "3G", "bandwidth_mbps")
	for ns, c := range row {
		if c <= 0 {
			t.Errorf("%s nodes: SAIs did not win (%.2f%%)", ns, c*100)
		}
		if c > 0.6 {
			t.Errorf("%s nodes: speed-up %.2f%% implausibly large", ns, c*100)
		}
	}
	if best := peak(row); best < 0.10 {
		t.Errorf("peak 3-Gbit speed-up %.2f%% too small (paper: 23.57%%)", best*100)
	}
}

func TestOneGigCompressesGain(t *testing.T) {
	best3, best1 := peak(changes(t, "3G", "bandwidth_mbps")), peak(changes(t, "1G", "bandwidth_mbps"))
	if best1 >= best3 {
		t.Errorf("1-Gbit peak %.2f%% not below 3-Gbit peak %.2f%%", best1*100, best3*100)
	}
	if best1 > 0.08 {
		t.Errorf("1-Gbit peak %.2f%% exceeds the NIC-bound regime (paper: 6.05%%)", best1*100)
	}
}

func TestFigure7MissRateReduction(t *testing.T) {
	for ns, c := range changes(t, "3G", "cache_miss_rate") {
		if c > -0.2 || c < -0.7 {
			t.Errorf("%s nodes: miss-rate change %.1f%% outside the paper's ≈-40%% band", ns, c*100)
		}
	}
}

func TestFigure11UnhaltedReduction(t *testing.T) {
	for ns, c := range changes(t, "3G", "unhalted_cycles") {
		if c >= -0.15 {
			t.Errorf("%s nodes: unhalted change %.1f%% too small a cut (paper: up to -48.57%%)", ns, c*100)
		}
	}
}

func TestFigure12PeaksThenDecays(t *testing.T) {
	at8 := cell(t, multi, "8/sais", "bandwidth_mbps_change")
	at48 := cell(t, multi, "48/sais", "bandwidth_mbps_change")
	if at8 <= at48 {
		t.Errorf("speed-up at 8 clients (%.2f%%) not above 48 clients (%.2f%%)", at8*100, at48*100)
	}
	if at8 <= 0 {
		t.Errorf("no gain at the paper's peak point: %.2f%%", at8*100)
	}
}

func TestFigure14NoBottleneckGain(t *testing.T) {
	if got := cell(t, ramdisk, "4/sais", "bandwidth_mbps_change"); got < 0.3 || got > 0.9 {
		t.Errorf("no-bottleneck speed-up %.2f%% outside the paper's ≈53%% region", got*100)
	}
	// Bandwidth must far exceed the 3-Gbit figures.
	if bw := cell(t, ramdisk, "4/sais", "bandwidth_mbps"); bw < 800 {
		t.Errorf("SAIs bandwidth %.0f MB/s too low for the memory-rate configuration", bw)
	}
}

// speedup is the bandwidth change of treatment over baseline, each a
// (study, row key) pair.
func speedup(t *testing.T, treatStudy, treatKey, baseStudy, baseKey string) float64 {
	t.Helper()
	return metrics.Speedup(cell(t, treatStudy, treatKey, "bandwidth_mbps"), cell(t, baseStudy, baseKey, "bandwidth_mbps"))
}

func TestWritesControlTies(t *testing.T) {
	if c := speedup(t, extensions, "writes/16/sais", extensions, "writes/16/irqbalance"); c > 0.05 || c < -0.05 {
		t.Errorf("write-path change %.2f%%; policies should tie", c*100)
	}
}

func TestHybridRetainsGain(t *testing.T) {
	if c := speedup(t, extensions, "hybrid/16/hybrid", grid, "3G/1MiB/16/irqbalance"); c < 0.08 {
		t.Errorf("hybrid gain %.2f%% too small; should retain most of SAIs' gain", c*100)
	}
}

func TestFlowHashLosesToSAIs(t *testing.T) {
	if c := speedup(t, grid, "3G/1MiB/16/sais", extensions, "flowhash/16/flowhash"); c <= 0 {
		t.Errorf("SAIs did not beat flow-affinity: %.2f%%", c*100)
	}
}

// TestReportTable: the table prints the study's description, header
// and rows, every value to four significant digits of the CSV's.
func TestReportTable(t *testing.T) {
	rep := paper(t, grid)
	table := rep.Table()
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if lines[0] != rep.Study.Description {
		t.Errorf("table title %q", lines[0])
	}
	rows := csvRows(rep.CSV())
	if len(lines) != len(rows)+1 {
		t.Fatalf("table has %d lines, want title + %d", len(lines), len(rows))
	}
	if got := strings.Fields(lines[1]); !reflect.DeepEqual(got, rows[0]) {
		t.Errorf("table header %v, want %v", got, rows[0])
	}
	for i, l := range lines[2:] {
		for j, f := range strings.Fields(l) {
			want, err := strconv.ParseFloat(rows[i+1][j], 64)
			if err != nil {
				if f != rows[i+1][j] {
					t.Errorf("row %d cell %d = %q, want %q", i, j, f, rows[i+1][j])
				}
				continue
			}
			got, err := strconv.ParseFloat(f, 64)
			if err != nil || math.Abs(got-want) > 5e-4*math.Abs(want) {
				t.Errorf("row %d cell %d = %q, want %v to four significant digits", i, j, f, want)
			}
		}
	}
}

func TestReportCSV(t *testing.T) {
	lines := csvRows(paper(t, ramdisk).CSV())
	if len(lines) != 1+7*2 {
		t.Fatalf("csv lines = %d, want header + 14 rows", len(lines))
	}
	if h := strings.Join(lines[0], ","); h != "apps,policy,bandwidth_mbps,bandwidth_mbps_ci95,bandwidth_mbps_change,strip_p50_us,strip_p95_us,strip_p99_us" {
		t.Errorf("header = %q", h)
	}
	if r := strings.Join(lines[1][:2], ","); r != "1,irqbalance" {
		t.Errorf("first row = %q", r)
	}
}

// TestReportChart: the chart of the extensions study draws one bar
// group per point, one series per policy, including the policies a
// point did not run.
func TestReportChart(t *testing.T) {
	chart, err := paper(t, extensions).Chart()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"(bandwidth_mbps)", "writes 8", "rss-hw 48", "irqbalance", "sais-socket", "rss"} {
		if !strings.Contains(chart, want) {
			t.Errorf("chart missing %q:\n%s", want, chart)
		}
	}
}

func TestWriteHTML(t *testing.T) {
	reps := []*scenario.StudyReport{paper(t, ramdisk), paper(t, multi)}
	var buf strings.Builder
	if err := scenario.WriteHTML(&buf, reps); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<!DOCTYPE html>", "<th>apps</th>", "<th>clients</th>", "<th>bandwidth_mbps_change</th>",
		"<td>irqbalance</td>", "Figure 14", "Figure 12"} {
		if !strings.Contains(out, want) {
			t.Errorf("html missing %q", want)
		}
	}
	// The page is a pure function of its reports: rendering them again
	// must be byte-identical.
	var again strings.Builder
	if err := scenario.WriteHTML(&again, reps); err != nil {
		t.Fatal(err)
	}
	if again.String() != out {
		t.Error("WriteHTML is not byte-stable across identical inputs")
	}
}

// failingWriter errors on every write, like a full disk.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWriteHTMLPropagatesWriterError(t *testing.T) {
	if err := scenario.WriteHTML(failingWriter{}, []*scenario.StudyReport{paper(t, ramdisk)}); err == nil {
		t.Error("WriteHTML to a failing writer returned nil")
	}
}

// smallRamdisk is the ramdisk study cut to two points and two seeds.
func smallRamdisk(t *testing.T) *scenario.Study {
	st := loadStudy(t, ramdisk)
	st.Dims[0].Values = st.Dims[0].Values[:2]
	st.Seeds = 2
	return st
}

// TestParallelCSVByteIdentical is the determinism property the runner
// guarantees: the same study rendered from a serial and a many-worker
// run must be byte-identical.
func TestParallelCSVByteIdentical(t *testing.T) {
	serial := runStudy(t, smallRamdisk(t), 1)
	parallel := runStudy(t, smallRamdisk(t), 8)
	if s, p := serial.CSV(), parallel.CSV(); s != p {
		t.Errorf("8-worker CSV differs from serial:\n%s\nvs\n%s", p, s)
	}
	if s, p := serial.Table(), parallel.Table(); s != p {
		t.Errorf("8-worker table differs from serial:\n%s\nvs\n%s", p, s)
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := scenario.RunStudy(ctx, smallRamdisk(t), 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || len(rep.Rows) != 0 {
		t.Errorf("pre-cancelled run reported rows: %+v", rep)
	}
}

// TestEmptyExperimentRejected: a study with nothing to run or report
// is a *StudyError, not an empty report.
func TestEmptyExperimentRejected(t *testing.T) {
	noCols := smallRamdisk(t)
	noCols.Columns = nil
	noPoints := smallRamdisk(t)
	noPoints.Dims[0].Values = nil
	for _, st := range []*scenario.Study{noCols, noPoints} {
		var se *scenario.StudyError
		if _, err := scenario.RunStudy(context.Background(), st, 1); !errors.As(err, &se) {
			t.Errorf("err = %v, want *StudyError", err)
		}
	}
}

// TestAblationsCoverEveryFactor: the ablation study varies one factor
// per value over every design axis DESIGN.md §6 names, against the
// hint-precision policies, and passes the invariant checker.
func TestAblationsCoverEveryFactor(t *testing.T) {
	st := loadStudy(t, "ablations")
	if want := []string{"irqbalance", "sais", "sais-socket", "flowhash"}; !reflect.DeepEqual(st.Policies, want) {
		t.Errorf("policies %v, want %v", st.Policies, want)
	}
	var labels []string
	for _, v := range st.Dims[0].Values {
		labels = append(labels, v.Label)
	}
	for _, factor := range []string{"baseline", "M=", "coalesce=", "migrate=", "policy-ii", "irqbalance-period=", "strip=", "bond-", "L3="} {
		if !slices.ContainsFunc(labels, func(l string) bool { return strings.HasPrefix(l, factor) }) {
			t.Errorf("no ablation value for %s in %v", factor, labels)
		}
	}
	st.Seeds = 1
	tb := csvTable(t, runStudy(t, st, 2))
	// The gain grows with the migration cost M.
	cheap, def, dear := tb.num(t, "M=10ns/sais", "bandwidth_mbps_change"),
		tb.num(t, "baseline/sais", "bandwidth_mbps_change"), tb.num(t, "M=400ns/sais", "bandwidth_mbps_change")
	if cheap >= def || def >= dear {
		t.Errorf("SAIs change %.2f%% at M=10ns, %.2f%% at the default 140ns, %.2f%% at 400ns; want increasing",
			cheap*100, def*100, dear*100)
	}
}
