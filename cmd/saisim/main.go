// Command saisim is the simulator's one command line. With no
// subcommand it runs one cluster config and prints the paper's four
// metrics and the busy-time breakdown; `saisim run` runs scenario and
// study files (internal/scenario), the paper's figures among them.
//
// Every config setting is a name=value argument over the base config
// (-config FILE, else cluster.DefaultConfig): name is a cluster.Config
// JSON field in any case, dots nesting (costs.remoteline=300), and
// value a JSON literal in raw units: bytes, nanoseconds, bytes per
// second. policy=NAME names the policy. `saisim run` takes the same
// arguments with comma-separated values and runs their grid.
//
// Examples:
//
//	saisim
//	saisim policy=sais servers=48 transfersize=1048576
//	saisim -json policy=sais 'faults={"Loss":0.01}' retrytimeout=20000000 maxretries=12
//	saisim -config cluster.json -save-config effective.json seed=7
//	saisim -trace-out spans.json policy=sais
//	saisim run
//	saisim run scenarios/crash-recover.json studies/degraded.json
//	saisim run -csv -parallel 2 servers=8,16 policy=irqbalance,sais
//	saisim validate scenarios/*.json studies/*.json
//	saisim chaos -n 20 -seed 7
//
// `saisim run` with no arguments runs studies/paper-*.json from the
// repository root. A scenario file prints PASS/FAIL lines, a study a
// table. `saisim validate` loads files as `run` does and prints nothing
// when they are valid; `saisim chaos` soaks the invariant suite over
// derived chaos timelines.
//
// Exit codes: 0 success; 1 a finding (a failed assertion or invariant,
// failed transfers, or a partial single run); 2 a usage error, a bad
// file or config, or an interrupted `run`. Ctrl-C (SIGINT) or an
// expired -timeout stops the simulation at event-loop granularity; a
// single run still prints its metrics, marked partial, and `run` the
// studies it finished.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"sais/cluster"
	"sais/internal/scenario"
	"sais/internal/trace"
	"sais/internal/units"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runCmd(args[1:], stdout, stderr)
		case "validate":
			return validateCmd(args[1:], stderr)
		case "chaos":
			return chaosCmd(args[1:], stdout, stderr)
		}
	}
	return single(args, stdout, stderr)
}

// command is what every command line shares: a flag set that reports
// to stderr, and optionally -timeout and the profile flags.
type command struct {
	fs                     *flag.FlagSet
	stderr                 io.Writer
	timeout                time.Duration
	cpuProfile, memProfile string
}

func newCommand(name, usage string, stderr io.Writer) *command {
	c := &command{fs: flag.NewFlagSet(name, flag.ContinueOnError), stderr: stderr}
	c.fs.SetOutput(stderr)
	c.fs.Usage = func() {
		fmt.Fprintln(stderr, "usage:", usage)
		c.fs.PrintDefaults()
	}
	return c
}

// runFlags registers -timeout, -cpuprofile and -memprofile.
func (c *command) runFlags() {
	c.fs.DurationVar(&c.timeout, "timeout", 0, "abort after this long of wall-clock time (0 = no limit)")
	c.fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	c.fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file on exit")
}

// parse parses args; on failure it returns the exit code, 0 for -h.
func (c *command) parse(args []string) (code int, ok bool) {
	switch err := c.fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	case err != nil:
		return 2, false
	}
	return 0, true
}

// fail prints a usage or input error and returns exit code 2.
func (c *command) fail(err error) int {
	fmt.Fprintln(c.stderr, "saisim:", err)
	return 2
}

// start starts the CPU profile and returns the run's context, cancelled
// by SIGINT, SIGTERM or -timeout; stop releases it, ends the CPU
// profile and writes the heap profile.
func (c *command) start() (ctx context.Context, stop func(), err error) {
	var cpu *os.File
	if c.cpuProfile != "" {
		if cpu, err = os.Create(c.cpuProfile); err != nil {
			return nil, nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return nil, nil, errors.Join(err, cpu.Close())
		}
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	cancelTimeout := context.CancelFunc(func() {})
	if c.timeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, c.timeout)
	}
	return ctx, func() {
		cancelTimeout()
		cancel()
		var err error
		if cpu != nil {
			pprof.StopCPUProfile()
			err = cpu.Close()
		}
		if c.memProfile != "" {
			err = errors.Join(err, create(c.memProfile, func(w io.Writer) error {
				runtime.GC() // materialize the final live heap
				return pprof.WriteHeapProfile(w)
			}))
		}
		if err != nil {
			fmt.Fprintln(c.stderr, "saisim:", err)
		}
	}, nil
}

// single implements `saisim [flags] [name=value ...]`: one run of the
// base config with the arguments applied, each name taking one value.
func single(args []string, stdout, stderr io.Writer) int {
	c := newCommand("saisim", "saisim [flags] [name=value ...], each name a cluster.Config field "+
		"(servers=16 policy=sais); saisim run|validate|chaos ...", stderr)
	configPath := c.fs.String("config", "", "load the base configuration from a JSON file (default: cluster.DefaultConfig)")
	saveConfig := c.fs.String("save-config", "", "write the effective configuration to a JSON file")
	asJSON := c.fs.Bool("json", false, "emit the result as JSON")
	traceOut := c.fs.String("trace-out", "", "record per-strip lifecycle spans and write them as a Chrome trace-event JSON file")
	shards := c.fs.Int("shards", 0, "partition the cluster over this many event engines (0 = the config's; results are identical for any value)")
	c.runFlags()
	if code, ok := c.parse(args); !ok {
		return code
	}

	base := cluster.DefaultConfig()
	if *configPath != "" {
		var err error
		if base, err = cluster.LoadConfig(*configPath); err != nil {
			return c.fail(err)
		}
	}
	st, err := scenario.ParseSweep(base, c.fs.Args())
	if err != nil {
		return c.fail(err)
	}
	for _, d := range st.Dims {
		if len(d.Values) > 1 {
			return c.fail(fmt.Errorf("%s has %d values; one run takes one value per name (saisim run sweeps a grid)", d.Name, len(d.Values)))
		}
	}
	if len(st.Policies) > 1 {
		return c.fail(fmt.Errorf("policy has %d values; one run takes one (saisim run sweeps policies)", len(st.Policies)))
	}
	cfg, err := st.FirstRun()
	if err != nil {
		return c.fail(err)
	}
	if *shards > 0 {
		cfg.Shards = *shards
	}
	if *saveConfig != "" {
		if err := cluster.SaveConfig(*saveConfig, cfg); err != nil {
			return c.fail(err)
		}
	}

	ctx, stop, err := c.start()
	if err != nil {
		return c.fail(err)
	}
	defer stop()
	var res *cluster.Result
	if *traceOut != "" {
		var spans *trace.SpanLog
		res, spans, err = cluster.RunSpannedContext(ctx, cfg)
		if spans != nil {
			if werr := create(*traceOut, spans.ExportChrome); werr != nil {
				fmt.Fprintln(stderr, "saisim:", werr)
				return 1
			}
			fmt.Fprintf(stderr, "saisim: wrote %d spans to %s\n", spans.Len(), *traceOut)
		}
	} else {
		res, err = cluster.RunContext(ctx, cfg)
	}
	partial := false
	if err != nil {
		if res == nil {
			fmt.Fprintln(stderr, "saisim:", err)
			return 1
		}
		// Interrupted mid-run: report what the simulator measured up to
		// the stopping point, and exit non-zero below.
		partial = true
		fmt.Fprintf(stderr, "saisim: run interrupted (%v); printing partial metrics at simulated t=%v\n",
			err, res.Duration)
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(stderr, "saisim:", err)
			return 1
		}
	} else {
		printResult(stdout, cfg, res)
	}
	switch f := res.Faults; {
	case partial:
		return 1
	case f.FailedOps > 0 || f.PartialOps > 0:
		// A faulted run never looks clean to scripts and CI.
		fmt.Fprintf(stderr, "saisim: %d ops failed, %d partial (%v short of %v offered) after %d retries\n",
			f.FailedOps, f.PartialOps, f.OfferedBytes-f.GoodputBytes, f.OfferedBytes, res.Retries)
		return 1
	}
	return 0
}

// printResult prints a run's metrics as text.
func printResult(w io.Writer, cfg cluster.Config, res *cluster.Result) {
	fmt.Fprintf(w, "policy          %s\n", res.Policy)
	fmt.Fprintf(w, "duration        %v\n", res.Duration)
	fmt.Fprintf(w, "bytes read      %v\n", res.TotalBytes)
	fmt.Fprintf(w, "bandwidth       %.1f MB/s\n", float64(res.Bandwidth)/1e6)
	fmt.Fprintf(w, "L2 miss rate    %.4f (%d misses / %d accesses)\n",
		res.CacheMissRate, res.LineMisses, res.LineAccesses)
	fmt.Fprintf(w, "  migrated lines %d, memory lines %d\n", res.RemoteLines, res.MemoryLines)
	fmt.Fprintf(w, "CPU utilization %.2f%%\n", res.CPUUtilization*100)
	fmt.Fprintf(w, "CLK_UNHALTED    %d cycles\n", res.UnhaltedCycles)
	fmt.Fprintf(w, "interrupts      %d (%d hinted), ring drops %d\n",
		res.Interrupts, res.HintedIRQs, res.RingDrops)
	if res.StripCount > 0 {
		fmt.Fprintf(w, "strip latency   mean %v, p50 %v, p95 %v, p99 %v (%d strips)\n",
			res.StripLatencyMean, res.StripLatencyP50, res.StripLatencyP95,
			res.StripLatencyP99, res.StripCount)
	}
	fmt.Fprintf(w, "bottlenecks     client NIC %.0f%%, server disks %.0f%%, server CPUs %.0f%%\n",
		res.ClientNICBusy*100, res.DiskBusy*100, res.ServerCPUBusy*100)
	if res.BackgroundOfferedBytes > 0 {
		fmt.Fprintf(w, "background      %d users offered %v, served %v (backlog %v)\n",
			cfg.BackgroundUsers, res.BackgroundOfferedBytes,
			res.BackgroundServedBytes, res.BackgroundBacklogBytes)
	}
	if f := res.Faults; f.FramesDropped+f.FramesCorrupted+f.RingDrops+f.StallsInjected+f.StormFrames > 0 || f.Crashes > 0 {
		fmt.Fprintf(w, "faults          dropped %d, corrupted %d, ring drops %d, stalls %d, storm frames %d\n",
			f.FramesDropped, f.FramesCorrupted, f.RingDrops, f.StallsInjected, f.StormFrames)
		fmt.Fprintf(w, "recovery        strips retried %d, duplicates %d, failed ops %d, goodput %v/%v\n",
			f.StripsRetried, f.DuplicateStrips, f.FailedOps, f.GoodputBytes, f.OfferedBytes)
		if f.Crashes > 0 {
			var down units.Time
			for _, d := range f.ServerDowntime {
				down += d
			}
			fmt.Fprintf(w, "crashes         %d (downtime %v, recovery %v)\n", f.Crashes, down, f.RecoveryTime)
		}
	}
	fmt.Fprintln(w, "busy time by category:")
	keys := make([]string, 0, len(res.BusyByCategory))
	for k := range res.BusyByCategory {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-10s %v\n", k, res.BusyByCategory[k])
	}
}

// create writes the file at path through write. The close error is
// returned: for a file just written, Close is where a full disk or
// quota error surfaces.
func create(path string, write func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return write(f)
}
