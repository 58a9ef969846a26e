// Command saisim runs a single simulated cluster under one interrupt
// scheduling policy and prints the paper's four metrics. It is the
// exploratory front-end to the library; cmd/experiments regenerates the
// paper's figures.
//
// Example:
//
//	saisim -policy sais -servers 48 -transfer 1MiB -nic 3
//	saisim -policy irqbalance -servers 16 -procs 4 -trace 20
//	saisim -timeout 30s -clients 32 -servers 48
//	saisim -loss 0.01 -retry 20ms -max-retries 12
//	saisim -crash 0 -crash-at 5ms -revive-at 35ms -retry 20ms -max-retries 12
//	saisim -fault-plan chaos.json -retry 20ms -max-retries 12
//	saisim -background-users 1000000 -foreground-clients 64
//	saisim run scenarios/crash-recover.json
//	saisim chaos -n 20 -seed 7
//
// -trace N records every strip's lifecycle spans and prints the N that
// ended last, one line each (start, duration, phase, strip identity);
// -trace-out writes all of them as a Chrome trace-event file.
//
// `saisim run` executes serializable scenario files (see
// internal/scenario) and exits nonzero when an assertion or runtime
// invariant fails; `saisim chaos` soaks the invariant suite over
// freshly derived chaos timelines.
//
// Ctrl-C (SIGINT) or an expired -timeout stops the simulation at
// event-loop granularity; the metrics accumulated up to that point are
// still printed, marked as partial. A completed run whose transfers
// failed after exhausting their retries also exits nonzero, with a
// one-line summary on stderr — a faulted run never looks clean to CI.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"sais/cluster"
	"sais/internal/faults"
	"sais/internal/flowsim"
	"sais/internal/irqsched"
	"sais/internal/prof"
	"sais/internal/trace"
	"sais/internal/units"
)

// profiler is package-level so fatal (which exits without running
// defers) can flush profiles too.
var profiler *prof.Profiler

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			os.Exit(runScenarioCmd(os.Args[2:]))
		case "chaos":
			os.Exit(chaosSoakCmd(os.Args[2:]))
		}
	}
	var (
		policyName = flag.String("policy", "sais", "scheduling policy: "+strings.Join(irqsched.Names(), "|"))
		servers    = flag.Int("servers", 16, "number of PVFS I/O server nodes")
		clients    = flag.Int("clients", 1, "number of client nodes")
		procs      = flag.Int("procs", 2, "IOR processes per client")
		cores      = flag.Int("cores", 8, "cores per client")
		nicGbit    = flag.Float64("nic", 3, "client NIC rate in Gbit/s")
		transfer   = flag.String("transfer", "1MiB", "transfer size (e.g. 128KiB, 1MiB, 2MiB)")
		perProc    = flag.String("bytes", "32MiB", "bytes each process reads")
		shared     = flag.Bool("shared", false, "clients read shared files (Figure-12 mode)")
		migrate    = flag.Float64("migrate", 0, "probability a process migrates while blocked on I/O")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		verbose    = flag.Bool("v", false, "print the busy-time breakdown")
		traceN     = flag.Int("trace", 0, "record per-strip lifecycle spans and print the N that ended last")
		traceOut   = flag.String("trace-out", "", "record per-strip lifecycle spans and write a Chrome trace-event JSON file (load in Perfetto or chrome://tracing)")
		asJSON     = flag.Bool("json", false, "emit the result as JSON")
		configPath = flag.String("config", "", "load the cluster configuration from a JSON file (flags below still override)")
		saveConfig = flag.String("save-config", "", "write the effective configuration to a JSON file")
		timeout    = flag.Duration("timeout", 0, "abort the simulation after this long of wall-clock time (0 = no limit)")

		faultPlan  = flag.String("fault-plan", "", "load a fault plan (JSON, see internal/faults) and apply it to the run")
		loss       = flag.Float64("loss", 0, "frame loss probability on the fabric [0,1); implies degraded mode")
		crashSrv   = flag.Int("crash", 0, "server index to crash (with -crash-at/-revive-at)")
		crashAt    = flag.Duration("crash-at", 0, "crash -crash server at this simulated time (0 = no crash)")
		reviveAt   = flag.Duration("revive-at", 0, "revive the crashed server at this simulated time (0 = stays down)")
		retry      = flag.Duration("retry", 0, "client retry timeout for lost transfers (0 = retries off)")
		maxRetries = flag.Int("max-retries", 0, "retries per transfer before abandoning it")

		bgUsers    = flag.Int("background-users", 0, "analytic background users sharing the cluster (hybrid-fidelity mode, see DESIGN.md §14)")
		fgClients  = flag.Int("foreground-clients", 0, "full-fidelity foreground client nodes (overrides -clients when set)")
		tenantMix  = flag.String("tenant-mix", "", "tenant mix as inline JSON (starts with '[') or a path to a JSON file; default: one constant-rate tenant")
		bgRate     = flag.Float64("bg-user-bps", 4096, "per-user mean rate in bytes/s for the default single-tenant mix")
		bgColocate = flag.Float64("bg-colocate", 0.2, "fraction of default-mix background traffic landing on client NICs")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		progress   = flag.Bool("progress", false, "print a progress heartbeat to stderr while the run executes")
		shardsN    = flag.Int("shards", 0, "partition the cluster over this many event engines (0/1 = single engine; results are identical for any value)")
	)
	flag.Parse()

	var err error
	profiler, err = prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer profiler.Stop()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *timeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, *timeout)
		defer cancelTimeout()
	}

	policy, err := irqsched.ParsePolicy(*policyName)
	if err != nil {
		fatal(err)
	}
	xfer, err := units.ParseBytes(*transfer)
	if err != nil {
		fatal(err)
	}
	budget, err := units.ParseBytes(*perProc)
	if err != nil {
		fatal(err)
	}

	cfg := cluster.DefaultConfig()
	if *configPath != "" {
		loaded, err := cluster.LoadConfig(*configPath)
		if err != nil {
			fatal(err)
		}
		cfg = loaded
	}
	cfg.Policy = policy
	cfg.Servers = *servers
	cfg.Clients = *clients
	cfg.ProcsPerClient = *procs
	cfg.CoresPerClient = *cores
	cfg.ClientNICRate = units.Rate(*nicGbit) * units.Gigabit
	cfg.TransferSize = xfer
	cfg.BytesPerProc = budget
	cfg.SharedFiles = *shared
	cfg.MigrateDuringBlock = *migrate
	cfg.Seed = *seed
	if *shardsN > 0 {
		cfg.Shards = *shardsN
	}
	// Nonzero (not just positive) passes through, so negatives reach
	// cluster validation instead of being silently ignored.
	if *fgClients != 0 {
		cfg.ForegroundClients = *fgClients
	}
	if *bgUsers != 0 {
		cfg.BackgroundUsers = *bgUsers
	}
	if *tenantMix != "" {
		mix, err := loadTenantMix(*tenantMix)
		if err != nil {
			fatal(err)
		}
		cfg.TenantMix = mix
	}
	if cfg.BackgroundUsers > 0 && len(cfg.TenantMix) == 0 {
		// Bare -background-users N: a single constant-rate tenant, so
		// the headline run needs no mix file.
		cfg.TenantMix = []flowsim.TenantShare{{
			Name:        "background",
			Share:       1,
			PerUserRate: units.Rate(*bgRate),
			Colocate:    *bgColocate,
		}}
	}

	if *faultPlan != "" {
		plan, err := faults.LoadPlan(*faultPlan)
		if err != nil {
			fatal(err)
		}
		cfg.Faults = plan
	}
	if *loss > 0 {
		if cfg.Faults == nil {
			cfg.Faults = &faults.Plan{}
		}
		cfg.Faults.Loss = *loss
	}
	if *crashAt > 0 {
		if cfg.Faults == nil {
			cfg.Faults = &faults.Plan{}
		}
		cfg.Faults.Timeline = append(cfg.Faults.Timeline,
			faults.TimelineEvent{At: units.Time(crashAt.Nanoseconds()), Kind: faults.KindCrash, Server: *crashSrv})
		if *reviveAt > 0 {
			cfg.Faults.Timeline = append(cfg.Faults.Timeline,
				faults.TimelineEvent{At: units.Time(reviveAt.Nanoseconds()), Kind: faults.KindRevive, Server: *crashSrv})
		}
	}
	if *retry > 0 {
		cfg.RetryTimeout = units.Time(retry.Nanoseconds())
	}
	if *maxRetries > 0 {
		cfg.MaxRetries = *maxRetries
	}

	if *saveConfig != "" {
		if err := cluster.SaveConfig(*saveConfig, cfg); err != nil {
			fatal(err)
		}
	}
	if *progress {
		// Throttled wall-clock heartbeat; stderr only, so the simulated
		// results stay byte-identical with and without it.
		last := time.Now() //lint:wallclock heartbeat throttle; stderr only
		cfg.Progress = func(fired uint64, live int, simNow units.Time) {
			now := time.Now() //lint:wallclock heartbeat throttle; stderr only
			if now.Sub(last) >= 500*time.Millisecond {
				last = now
				fmt.Fprintf(os.Stderr, "saisim: %d events fired, %d live, simulated t=%v\n", fired, live, simNow)
			}
		}
	}
	if *traceN > 0 {
		printTraced(ctx, cfg, *traceN)
		return
	}
	var res *cluster.Result
	if *traceOut != "" {
		var spans *trace.SpanLog
		res, spans, err = cluster.RunSpannedContext(ctx, cfg)
		if werr := writeTrace(*traceOut, spans); werr != nil {
			fatal(werr)
		}
		fmt.Fprintf(os.Stderr, "saisim: wrote %d spans to %s\n", spans.Len(), *traceOut)
	} else {
		res, err = cluster.RunContext(ctx, cfg)
	}
	partial := false
	if err != nil {
		if res == nil {
			fatal(err)
		}
		// Interrupted mid-run: report what the simulator measured up to
		// the stopping point, and exit non-zero below.
		partial = true
		fmt.Fprintf(os.Stderr, "saisim: run interrupted (%v); printing partial metrics at simulated t=%v\n",
			err, res.Duration)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		if partial {
			profiler.Stop()
			os.Exit(1)
		}
		exitIfFaulted(res)
		return
	}

	fmt.Printf("policy          %s\n", res.Policy)
	fmt.Printf("duration        %v\n", res.Duration)
	fmt.Printf("bytes read      %v\n", res.TotalBytes)
	fmt.Printf("bandwidth       %.1f MB/s\n", float64(res.Bandwidth)/1e6)
	fmt.Printf("L2 miss rate    %.4f (%d misses / %d accesses)\n",
		res.CacheMissRate, res.LineMisses, res.LineAccesses)
	fmt.Printf("  migrated lines %d, memory lines %d\n", res.RemoteLines, res.MemoryLines)
	fmt.Printf("CPU utilization %.2f%%\n", res.CPUUtilization*100)
	fmt.Printf("CLK_UNHALTED    %d cycles\n", res.UnhaltedCycles)
	fmt.Printf("interrupts      %d (%d hinted), ring drops %d\n",
		res.Interrupts, res.HintedIRQs, res.RingDrops)
	if res.StripCount > 0 {
		fmt.Printf("strip latency   mean %v, p50 %v, p95 %v, p99 %v (%d strips)\n",
			res.StripLatencyMean, res.StripLatencyP50, res.StripLatencyP95,
			res.StripLatencyP99, res.StripCount)
	}
	fmt.Printf("bottlenecks     client NIC %.0f%%, server disks %.0f%%, server CPUs %.0f%%\n",
		res.ClientNICBusy*100, res.DiskBusy*100, res.ServerCPUBusy*100)
	if res.BackgroundOfferedBytes > 0 {
		fmt.Printf("background      %d users offered %v, served %v (backlog %v)\n",
			cfg.BackgroundUsers, res.BackgroundOfferedBytes,
			res.BackgroundServedBytes, res.BackgroundBacklogBytes)
	}
	if f := res.Faults; f.FramesDropped+f.FramesCorrupted+f.RingDrops+f.StallsInjected+f.StormFrames > 0 || f.Crashes > 0 {
		fmt.Printf("faults          dropped %d, corrupted %d, ring drops %d, stalls %d, storm frames %d\n",
			f.FramesDropped, f.FramesCorrupted, f.RingDrops, f.StallsInjected, f.StormFrames)
		fmt.Printf("recovery        strips retried %d, duplicates %d, failed ops %d, goodput %v/%v\n",
			f.StripsRetried, f.DuplicateStrips, f.FailedOps, f.GoodputBytes, f.OfferedBytes)
		if f.Crashes > 0 {
			var down units.Time
			for _, d := range f.ServerDowntime {
				down += d
			}
			fmt.Printf("crashes         %d (downtime %v, recovery %v)\n", f.Crashes, down, f.RecoveryTime)
		}
	}
	if *verbose {
		fmt.Println("busy time by category:")
		keys := make([]string, 0, len(res.BusyByCategory))
		for k := range res.BusyByCategory {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-10s %v\n", k, res.BusyByCategory[k])
		}
	}
	if partial {
		profiler.Stop()
		os.Exit(1)
	}
	exitIfFaulted(res)
}

// exitIfFaulted turns a completed run with abandoned or partial
// transfers into a nonzero exit, with a one-line summary on stderr, so
// scripts and CI never mistake a degraded run for a clean one.
func exitIfFaulted(res *cluster.Result) {
	f := res.Faults
	if f.FailedOps == 0 && f.PartialOps == 0 {
		return
	}
	profiler.Stop()
	fmt.Fprintf(os.Stderr, "saisim: %d ops failed, %d partial (%v short of %v offered) after %d retries\n",
		f.FailedOps, f.PartialOps, f.OfferedBytes-f.GoodputBytes, f.OfferedBytes, res.Retries)
	os.Exit(1)
}

// loadTenantMix decodes a tenant mix from inline JSON (anything
// starting with '[') or from a JSON file. Validation happens in
// cluster.Run, so errors carry the same typed sentinels either way.
func loadTenantMix(arg string) ([]flowsim.TenantShare, error) {
	data := []byte(arg)
	if len(arg) == 0 || arg[0] != '[' {
		b, err := os.ReadFile(arg)
		if err != nil {
			return nil, fmt.Errorf("tenant-mix: %w", err)
		}
		data = b
	}
	var mix []flowsim.TenantShare
	if err := json.Unmarshal(data, &mix); err != nil {
		return nil, fmt.Errorf("tenant-mix: %w", err)
	}
	return mix, nil
}

// printTraced runs cfg with span tracing on and prints the last n
// spans to end.
func printTraced(ctx context.Context, cfg cluster.Config, n int) {
	res, spans, err := cluster.RunSpannedContext(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	last := spans.Last(n)
	fmt.Printf("bandwidth %.1f MB/s under %s; last %d of %d spans:\n",
		float64(res.Bandwidth)/1e6, res.Policy, len(last), spans.Len())
	for _, s := range last {
		fmt.Println(s)
	}
}

// writeTrace exports the span log as Chrome trace-event JSON. The close
// error is returned: for a file just written, Close is where a full
// disk or quota error surfaces.
func writeTrace(path string, spans *trace.SpanLog) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return spans.ExportChrome(f)
}

func fatal(err error) {
	profiler.Stop() // os.Exit skips defers; flush profiles first
	fmt.Fprintln(os.Stderr, "saisim:", err)
	os.Exit(1)
}
