// Command perfbench is the repository's benchmark: it drives one of four
// canonical cluster workloads through the public cluster API, times it
// end to end, checks its outputs, and — in its traced mode — attributes
// host time, allocations and modelled time to the simulator's layers
// from outside the simulator. See README.md in this directory.
//
//	perfbench --workload fig5-pair --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"sais/cluster"
	"sais/internal/metrics"
	"sais/internal/trace"
)

// heldOutSeed is reserved for confirming a claim after a change is
// written: never tune or debug against it.
const heldOutSeed = 7919

// Sizes of the parts of one invocation.
const (
	minReps           = 3    // timed repetitions, whatever the budget
	setupProbesPerRep = 5    // setup probes before each timed repetition
	spannedReps       = 2    // spanned repetitions in the traced mode
	allocSlack        = 0.01 // attribution may miss this share of allocations
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", runSeconds, "seconds of timed repetitions")
	traceMode := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	spec := fl.Bool("spec", false, "print the BENCHMARK.json document and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *spec {
		if err := writeSpec(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if !(*seconds > 0 && *seconds <= 3600) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be in (0, 3600]")
		return 2
	}
	w, err := buildWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	env := envRecord{
		Workload: w.Name, Seed: *seed, HeldOut: *seed == heldOutSeed,
		Seconds: *seconds, Trace: *traceMode,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	js, _ := json.Marshal(env) // a struct of plain fields always encodes
	fmt.Fprintf(stdout, "env %s\n", js)

	b := &bench{w: w, budget: time.Duration(*seconds * float64(time.Second)),
		traced: *traceMode == 1, chk: &checker{w: w}, out: map[string]float64{}}
	if err := b.measure(context.Background()); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := b.report(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// envRecord identifies what produced a result.
type envRecord struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	HeldOut    bool    `json:"heldout"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

// commit names the source the benchmark was built from: the VCS
// revision the toolchain stamped, or, outside a repository, a digest of
// the module's Go sources and module files under the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// bench is one invocation: a workload, its time budget and mode, the
// checker counting failed repetitions, and the metrics computed so far.
type bench struct {
	w      workload
	budget time.Duration
	traced bool
	chk    *checker
	out    map[string]float64
	notes  []string
}

// measure runs the invocation. Untimed first: a reference repetition
// (also the warm-up), spanned repetitions that must reproduce it, and
// the single-engine twin of a sharded workload. Then the timed
// repetitions, with tracing and profiling off, interleaved with setup
// probes and runs of the calibration kernel. The traced mode spends a quarter of the budget on timed
// repetitions without probes and a quarter under the CPU profiler, then
// one repetition with every allocation sampled.
func (b *bench) measure(ctx context.Context) error {
	ref := b.checked(ctx, "reference", b.w, false)
	if ref.Err != nil {
		return fmt.Errorf("reference repetition: %w", ref.Err)
	}
	nSpanned := 1
	if b.traced {
		nSpanned = spannedReps
	}
	var spanWalls []float64
	for i := 0; i < nSpanned; i++ {
		r := b.checked(ctx, "spanned", b.w, true)
		spanWalls = append(spanWalls, r.Wall.Seconds())
		if i == 0 && b.traced && r.Err == nil {
			b.modelled(r)
		}
	}
	if b.w.Runs[0].Shards > 1 {
		one := b.w
		one.Runs = []cluster.Config{b.w.Runs[0]}
		one.Runs[0].Shards, one.Runs[0].Workers = 1, 1
		b.checked(ctx, "shards=1", one, false)
	}

	budget, probes := b.budget, setupProbesPerRep
	if b.traced {
		// The repetition with every allocation sampled costs tens of
		// seconds on its own, so the timed and profiled parts share a
		// half of the budget.
		budget, probes = budget/4, 0
	}
	reps, setups, err := b.timed(ctx, budget, probes)
	if err != nil {
		return err
	}
	if len(reps) == 0 {
		return fmt.Errorf("every timed repetition failed: %v", b.chk.problems)
	}
	if !b.traced {
		b.out["setup_s"] = median(setups)
	}
	walls := collect(reps, func(r rep) float64 { return r.Wall.Seconds() })
	norms := collect(reps, func(r rep) float64 { return r.Wall.Seconds() * calReference.Seconds() / r.Cal.Seconds() })
	cals := collect(reps, func(r rep) float64 { return r.Cal.Seconds() })
	b.out["wall_s"] = median(walls)
	b.out["norm_wall_s"] = median(norms)
	b.notes = append(b.notes, spreadNote("wall_s", walls), spreadNote("norm_wall_s", norms),
		fmt.Sprintf("calibration kernel: median %.4f s, reference %.4f s", median(cals), calReference.Seconds()))
	b.out["sim_MB_per_wall_s"] = median(collect(reps, func(r rep) float64 { return float64(r.Bytes) / 1e6 / r.Wall.Seconds() }))
	b.out["allocs_per_strip"] = median(collect(reps, func(r rep) float64 { return float64(r.Mallocs) / r.Strips }))
	b.out["alloc_bytes_per_strip"] = median(collect(reps, func(r rep) float64 { return float64(r.AllocBytes) / r.Strips }))
	last := ref.Results[len(ref.Results)-1]
	b.out["model_bandwidth_MBps"] = float64(last.Bandwidth) / 1e6
	if !b.traced {
		return nil
	}

	b.out["trace.overhead_frac"] = median(spanWalls)/median(walls) - 1
	b.out["sim.events"] = median(collect(reps, func(r rep) float64 { return float64(r.Events) }))
	b.out["sim.events_per_strip"] = median(collect(reps, func(r rep) float64 { return float64(r.Events) / r.Strips }))
	b.out["sim.ns_per_event"] = median(collect(reps, func(r rep) float64 { return float64(r.Wall.Nanoseconds()) / float64(r.Events) }))
	if reps[0].Rounds > 0 {
		b.out["shard.rounds"] = median(collect(reps, func(r rep) float64 { return float64(r.Rounds) }))
		b.out["shard.events_per_round"] = median(collect(reps, func(r rep) float64 { return float64(r.Events) / float64(r.Rounds) }))
		b.out["shard.us_per_round"] = median(collect(reps, func(r rep) float64 { return r.Wall.Seconds() * 1e6 / float64(r.Rounds) }))
	}
	if err := b.hostTime(ctx, budget); err != nil {
		return err
	}
	b.allocations(ctx)
	return nil
}

// checked runs one repetition and submits it to the checker.
func (b *bench) checked(ctx context.Context, kind string, w workload, spanned bool) rep {
	runtime.GC() // every repetition starts from a collected heap
	r := runRep(ctx, w, spanned)
	b.chk.check(kind, r)
	return r
}

// timed runs repetitions until the budget is spent, at least minReps,
// and returns those that completed. Before each repetition it runs
// probes setup probes of the workload and records their setup times,
// summed over the workload's runs: spreading the probes over the whole
// budget samples setup under the same host conditions as the
// repetitions.
func (b *bench) timed(ctx context.Context, budget time.Duration, probes int) ([]rep, []float64, error) {
	var reps []rep
	var setups []float64
	start := time.Now()
	before := calibrateFromGC()
	for n := 0; n < minReps || time.Since(start) < budget; n++ {
		for i := 0; i < probes; i++ {
			var sum time.Duration
			for _, cfg := range b.w.Runs {
				runtime.GC() // as for a repetition, setup starts from a collected heap
				d, err := setupProbe(cfg)
				if err != nil {
					return nil, nil, err
				}
				sum += d
			}
			setups = append(setups, sum.Seconds())
		}
		r := b.checked(ctx, "timed", b.w, false)
		after := calibrateFromGC()
		r.Cal, before = (before+after)/2, after
		if r.Err == nil {
			r.Results = nil
			reps = append(reps, r)
		}
	}
	return reps, setups, nil
}

// calibrateFromGC times the calibration kernel from a collected heap,
// so no collection left over from a repetition runs beside it.
func calibrateFromGC() time.Duration {
	runtime.GC()
	return calibrate()
}

// hostTime profiles repetitions for the budget and records each layer's
// share of host time.
func (b *bench) hostTime(ctx context.Context, budget time.Duration) error {
	var timedErr error
	frac, samples, err := cpuProfile(func() { _, _, timedErr = b.timed(ctx, budget, 0) })
	if err == nil {
		err = timedErr
	}
	if err != nil {
		return err
	}
	for _, l := range hostLayers {
		b.out[l+".host_frac"] = frac[l]
	}
	b.notes = append(b.notes, fmt.Sprintf("host time: %d profile samples; largest layer %s", samples, largest(frac)))
	return nil
}

// allocations runs one repetition with every allocation sampled,
// charges each to a layer, and checks that the layers account for every
// allocation the runtime counted.
func (b *bench) allocations(ctx context.Context) {
	var r rep
	runtime.GC()
	byLayer := allocProfile(func() { r = runRep(ctx, b.w, false) })
	if !b.chk.check("alloc-profiled", r) {
		return
	}
	var sum uint64
	perStrip := map[string]float64{}
	for _, l := range allocLayers {
		sum += byLayer[l]
		perStrip[l] = float64(byLayer[l]) / r.Strips
		b.out[l+".allocs_per_strip"] = perStrip[l]
	}
	b.notes = append(b.notes, fmt.Sprintf("allocations: layers sum to %.3f/strip, runtime counted %.3f/strip; largest layer %s",
		float64(sum)/r.Strips, float64(r.Mallocs)/r.Strips, largest(perStrip)))
	if diff := math.Abs(float64(sum) - float64(r.Mallocs)); diff > allocSlack*float64(r.Mallocs) {
		b.chk.fail("alloc-profiled", fmt.Sprintf("layers account for %d allocations, runtime counted %d", sum, r.Mallocs))
	}
}

// modelled records the simulated per-layer metrics of a spanned
// repetition: phase percentiles from its spans, and counters and
// occupancy from its Results, pooled over the workload's runs.
func (b *bench) modelled(r rep) {
	var phases [trace.NumPhases][]float64
	var spans int
	for _, log := range r.Logs {
		for _, s := range log.Spans() {
			phases[s.Phase] = append(phases[s.Phase], float64(s.End-s.Start)/1e3)
		}
		spans += len(log.Spans()) + len(log.CoreSpans())
	}
	b.out["trace.spans"] = float64(spans)
	b.out["client.issue_p50_us"] = metrics.Percentile(phases[trace.PhaseIssue], 50)
	b.out["pfs.service_p50_us"] = metrics.Percentile(phases[trace.PhaseService], 50)
	b.out["pfs.service_p99_us"] = metrics.Percentile(phases[trace.PhaseService], 99)
	b.out["netsim.fabric_p50_us"] = metrics.Percentile(phases[trace.PhaseFabric], 50)
	b.out["netsim.ring_p99_us"] = metrics.Percentile(phases[trace.PhaseRing], 99)
	b.out["apic.steer_p50_us"] = metrics.Percentile(phases[trace.PhaseSteer], 50)
	b.out["cpu.irq_p50_us"] = metrics.Percentile(phases[trace.PhaseIRQ], 50)
	b.out["client.consume_p50_us"] = metrics.Percentile(phases[trace.PhaseConsume], 50)

	var remote, accesses, misses, interrupts, hinted, retried, retries uint64
	var offered, served float64
	var busy, migration, softirq, util, nic, srvCPU, disk float64
	for _, res := range r.Results {
		remote += res.RemoteLines
		accesses += res.LineAccesses
		misses += res.LineMisses
		interrupts += res.Interrupts
		hinted += res.HintedIRQs
		retried += res.Faults.StripsRetried
		retries += res.Retries
		offered += float64(res.BackgroundOfferedBytes)
		served += float64(res.BackgroundServedBytes)
		for cat, t := range res.BusyByCategory {
			busy += float64(t)
			switch cat {
			case "migration":
				migration += float64(t)
			case "softirq":
				softirq += float64(t)
			}
		}
		util += res.CPUUtilization
		nic += res.ClientNICBusy
		srvCPU += res.ServerCPUBusy
		disk += res.DiskBusy
	}
	n := float64(len(r.Results))
	b.out["cache.remote_lines_per_strip"] = float64(remote) / r.Strips
	b.out["cache.miss_rate"] = ratio(float64(misses), float64(accesses))
	b.out["cpu.migration_share"] = ratio(migration, busy)
	b.out["cpu.softirq_share"] = ratio(softirq, busy)
	b.out["cpu.utilization"] = util / n
	b.out["apic.hinted_frac"] = ratio(float64(hinted), float64(interrupts))
	b.out["netsim.client_nic_busy"] = nic / n
	b.out["pfs.server_cpu_busy"] = srvCPU / n
	b.out["disk.busy"] = disk / n
	b.out["faults.strips_retried"] = float64(retried)
	b.out["client.retries"] = float64(retries)
	b.out["flowsim.served_frac"] = ratio(served, offered)

	last := r.Results[len(r.Results)-1]
	b.out["model_strip_p99_us"] = float64(last.StripLatencyP99) / 1e3
	if len(r.Results) == 2 {
		gain := float64(r.Results[1].Bandwidth)/float64(r.Results[0].Bandwidth) - 1
		b.out["paper_gap_pp"] = math.Abs(gain-paperFig5Gain) * 100
		b.notes = append(b.notes, fmt.Sprintf("simulated sais gain over irqbalance: %+.2f%% (paper %+.2f%%)", gain*100, paperFig5Gain*100))
	}
}

// report prints every metric of the mode by name with its unit, the
// checker's findings, and the result line.
func (b *bench) report(w io.Writer) error {
	defs := endToEnd
	if b.traced {
		defs = perLayer()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		v := b.out[d.Name]
		ms[d.Name] = value{v, d.Unit}
		fmt.Fprintf(w, "metric %-32s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for _, n := range b.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	if !b.traced {
		fmt.Fprintf(w, "metric %-32s %14.6g s (not gated)\n", "wall_s", b.out["wall_s"])
		fmt.Fprintf(w, "metric %-32s %14.6g MB/s (not gated)\n", "sim_MB_per_wall_s", b.out["sim_MB_per_wall_s"])
	}
	fmt.Fprintf(w, "metric %-32s %14.6g frac (failed/attempted)\n", "failed_run_frac",
		float64(b.chk.failed)/float64(b.chk.attempted))
	for _, p := range b.chk.problems {
		fmt.Fprintf(w, "check failed: %s\n", p)
	}
	js, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.chk.failed == 0, b.chk.attempted, b.chk.failed, ms})
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", js)
	return err
}

// spreadNote summarises the distribution of one timing over the timed
// repetitions.
func spreadNote(name string, xs []float64) string {
	return fmt.Sprintf("%s over %d timed repetitions: min %.4f, quartiles %.4f %.4f %.4f, max %.4f",
		name, len(xs), metrics.Percentile(xs, 0), metrics.Percentile(xs, 25), median(xs),
		metrics.Percentile(xs, 75), metrics.Percentile(xs, 100))
}

func collect(reps []rep, f func(rep) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}

func median(xs []float64) float64 { return metrics.Percentile(xs, 50) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// largest names the key with the largest value, ties broken by name.
func largest(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best := ""
	for _, k := range keys {
		if best == "" || m[k] > m[best] {
			best = k
		}
	}
	return best
}
