// Command experiments regenerates the paper's evaluation: every table
// and figure (5-12, 14, and the §V.C 1-Gigabit result) as a text table
// of baseline vs SAIs with the relative change per cell. It also runs
// study files (studies/*.json, see internal/scenario.Study): a scenario
// swept over a grid of config deltas, policies and seeds, every run
// checked against the runtime invariants.
//
// Usage:
//
//	experiments              # run everything, in paper order
//	experiments -fig 5       # one figure ("5", "figure5", "5-1g", "12", ...)
//	experiments -list        # list experiment ids
//	experiments -seeds 5     # more repetitions per cell
//	experiments -parallel 8  # run up to 8 cells concurrently per figure
//	experiments -timeout 2m  # bound the whole regeneration
//	experiments -study studies/degraded.json  # run a study file
//
// Ctrl-C (SIGINT) cancels in-flight simulations promptly and the
// figures completed (or partially completed) so far are still printed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sais/experiments"
	"sais/internal/prof"
	"sais/internal/scenario"
)

// profiler is package-level so fatal (which exits without running
// defers) can flush profiles too.
var profiler *prof.Profiler

func main() {
	var (
		fig     = flag.String("fig", "", "run a single figure by id or number")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		seeds   = flag.Int("seeds", 0, "override repetitions per cell (default: per-experiment, ≥3)")
		plot    = flag.Bool("plot", false, "render each figure as an ASCII bar chart too")
		csv     = flag.Bool("csv", false, "emit CSV rows instead of tables")
		html    = flag.String("html", "", "also write a self-contained HTML report to this file")
		par     = flag.Int("parallel", 1, "run up to N cells of each experiment concurrently")
		timeout = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
		study   = flag.String("study", "", "run this study file (honours -seeds, -parallel, -csv) and exit")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
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

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	if *study != "" {
		runStudy(ctx, *study, *seeds, *par, *csv)
		return
	}

	var toRun []experiments.Experiment
	if *fig != "" {
		id := *fig
		// Bare numbers ("5", "12") are shorthand for figure ids; named
		// experiments (writes, hybrid, ...) pass through.
		if _, err := experiments.ByID(id); err != nil && !strings.HasPrefix(id, "figure") {
			id = "figure" + id
		}
		e, err := experiments.ByID(id)
		if err != nil {
			fatal(err)
		}
		toRun = []experiments.Experiment{e}
	} else {
		toRun = experiments.All()
	}

	var reports []*experiments.Report
	interrupted := false
	for _, e := range toRun {
		if *seeds > 0 {
			e.Seeds = *seeds
		}
		e.Parallel = *par
		start := time.Now() //lint:wallclock operator-facing elapsed-time note, not a figure input
		rep, err := e.RunContext(ctx)
		if err != nil {
			if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			// Graceful shutdown: keep whatever cells finished before the
			// signal or deadline, print them, and stop scheduling figures.
			interrupted = true
			if rep != nil && len(rep.Cells) > 0 {
				reports = append(reports, rep)
				render(rep, *csv, *plot)
				elapsed := time.Since(start).Round(time.Millisecond) //lint:wallclock operator-facing elapsed-time note, not a figure input
				fmt.Printf("(%s interrupted after %v with %d/%d cells)\n\n",
					e.ID, elapsed, len(rep.Cells), len(e.Cells))
			}
			fmt.Fprintln(os.Stderr, "experiments: run cancelled:", err)
			break
		}
		reports = append(reports, rep)
		render(rep, *csv, *plot)
		if !*csv {
			//lint:wallclock operator-facing elapsed-time note, not a figure input
			fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	if *html != "" {
		f, err := os.Create(*html)
		if err != nil {
			fatal(err)
		}
		//lint:wallclock report header timestamp; injected here so the experiments package stays deterministic
		generated := time.Now().Format(time.RFC1123)
		werr := experiments.WriteHTML(f, reports, generated)
		if cerr := f.Close(); werr == nil {
			werr = cerr // a dropped close error would hide a truncated report
		}
		if werr != nil {
			fatal(werr)
		}
		fmt.Printf("HTML report written to %s\n", *html)
	}
	if interrupted {
		profiler.Stop()
		os.Exit(1)
	}
}

func fatal(err error) {
	profiler.Stop() // os.Exit skips defers; flush profiles first
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// runStudy loads and runs one study file, prints its table or CSV,
// and exits nonzero if any run broke an invariant or assertion.
func runStudy(ctx context.Context, path string, seeds, parallel int, csv bool) {
	st, err := scenario.LoadStudy(path)
	if err != nil {
		fatal(err)
	}
	if seeds > 0 {
		st.Seeds = seeds
	}
	rep, err := scenario.RunStudy(ctx, st, parallel)
	if err != nil {
		fatal(err)
	}
	if csv {
		fmt.Print(rep.CSV())
	} else {
		fmt.Println(rep.Table())
	}
	if !rep.Passed() {
		fatal(fmt.Errorf("study %s:\n%s", st.Name, strings.TrimSuffix(rep.Findings(), "\n")))
	}
}

// render prints one report in the selected format.
func render(rep *experiments.Report, csv, plot bool) {
	if csv {
		fmt.Print(rep.CSV())
		return
	}
	fmt.Println(rep.Table())
	if plot {
		chart, err := rep.Chart()
		if err != nil {
			fatal(err)
		}
		fmt.Println(chart)
	}
}
