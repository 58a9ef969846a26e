// Command experiments regenerates the paper's evaluation from study
// files (studies/*.json, see internal/scenario.Study): each is a
// scenario swept over a grid of config deltas, policies and seeds,
// every run checked against the runtime invariants, and printed as a
// table of per-row means, confidence intervals and signed changes
// against the first listed policy. Arguments of the form
// name=v1,v2,... instead make one ad-hoc study over the default
// cluster (scenario.ParseSweep): name is a cluster.Config JSON field,
// each value a JSON literal, and policy=a,b names the policies.
//
// Usage:
//
//	experiments                          # the paper, studies/paper-*.json in order
//	experiments studies/degraded.json    # named study files, in order
//	experiments -csv servers=8,16 policy=irqbalance,sais
//	experiments transfersize=131072,1048576 costs.remoteline=100,300
//	experiments -seeds 5                 # more repetitions per cell
//	experiments -parallel 8              # run up to 8 simulations concurrently
//	experiments -timeout 2m              # bound the whole regeneration
//	experiments -plot -html report.html  # add ASCII charts and an HTML page
//
// With no arguments it must run from the repository root. It exits 1
// if a run breaks an invariant or assertion (findings on stderr). Ctrl-C
// (SIGINT) cancels in-flight simulations promptly; the studies
// completed so far, and the finished rows of the interrupted one, are
// still printed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"sais/internal/prof"
	"sais/internal/scenario"
)

// paperStudies names the paper's evaluation, in paper order.
const paperStudies = "studies/paper-*.json"

// profiler is package-level so fatal (which exits without running
// defers) can flush profiles too.
var profiler *prof.Profiler

func main() {
	var (
		seeds   = flag.Int("seeds", 0, "override repetitions per cell (default: per study)")
		plot    = flag.Bool("plot", false, "render each study's first column as an ASCII bar chart too")
		csv     = flag.Bool("csv", false, "emit CSV rows instead of tables")
		html    = flag.String("html", "", "also write a self-contained HTML report to this file")
		par     = flag.Int("parallel", 1, "run up to N simulations of each study concurrently")
		timeout = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")

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

	studies, err := loadStudies(flag.Args())
	if err != nil {
		fatal(err)
	}
	for _, st := range studies {
		if *seeds > 0 {
			st.Seeds = *seeds
		}
	}

	var reports []*scenario.StudyReport
	failed := false
	for _, st := range studies {
		start := time.Now() //lint:wallclock operator-facing elapsed-time note, not a figure input
		rep, err := scenario.RunStudy(ctx, st, *par)
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			fatal(err)
		}
		if len(rep.Rows) > 0 {
			reports = append(reports, rep)
			render(rep, *csv, *plot)
		}
		elapsed := time.Since(start).Round(time.Millisecond) //lint:wallclock operator-facing elapsed-time note, not a figure input
		if err != nil {
			// Graceful shutdown: the finished rows are printed above;
			// stop scheduling studies.
			fmt.Printf("(%s interrupted after %v with %d rows)\n\n", st.Name, elapsed, len(rep.Rows))
			fmt.Fprintln(os.Stderr, "experiments: run cancelled:", err)
			failed = true
			break
		}
		if !*csv {
			fmt.Printf("(%s completed in %v)\n\n", st.Name, elapsed)
		}
		if !rep.Passed() {
			fmt.Fprintf(os.Stderr, "experiments: study %s:\n%s", st.Name, rep.Findings())
			failed = true
		}
	}
	if *html != "" {
		f, err := os.Create(*html)
		if err != nil {
			fatal(err)
		}
		werr := scenario.WriteHTML(f, reports)
		if cerr := f.Close(); werr == nil {
			werr = cerr // a dropped close error would hide a truncated report
		}
		if werr != nil {
			fatal(werr)
		}
		fmt.Printf("HTML report written to %s\n", *html)
	}
	if failed {
		profiler.Stop()
		os.Exit(1)
	}
}

// loadStudies resolves the arguments before any simulation runs, so a
// typo fails fast: inline dims make one study, otherwise each argument
// is a study file, and no arguments means the paper.
func loadStudies(args []string) ([]*scenario.Study, error) {
	if slices.ContainsFunc(args, func(a string) bool { return strings.Contains(a, "=") }) {
		st, err := scenario.ParseSweep(args)
		return []*scenario.Study{st}, err
	}
	if len(args) == 0 {
		args, _ = filepath.Glob(paperStudies) // the pattern is well-formed
		if len(args) == 0 {
			return nil, fmt.Errorf("no %s here; run from the repository root or name study files", paperStudies)
		}
	}
	studies := make([]*scenario.Study, len(args))
	for i, path := range args {
		var err error
		if studies[i], err = scenario.LoadStudy(path); err != nil {
			return nil, err
		}
	}
	return studies, nil
}

func fatal(err error) {
	profiler.Stop() // os.Exit skips defers; flush profiles first
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// render prints one report in the selected format.
func render(rep *scenario.StudyReport, csv, plot bool) {
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
