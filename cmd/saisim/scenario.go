package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"sais/cluster"
	"sais/internal/rng"
	"sais/internal/scenario"
)

// paperStudies names the paper's evaluation, in paper order.
const paperStudies = "studies/paper-*.json"

// runCmd implements `saisim run [flags] [FILE... | name=v1,v2 ...]`:
// load every argument first, then run each in order. A scenario file
// prints its PASS/FAIL lines; a study prints a table or CSV. Exit 0
// when everything passes, 1 on a violated invariant or failed
// assertion, 2 on bad input or an interrupted run.
func runCmd(args []string, stdout, stderr io.Writer) int {
	c := newCommand("saisim run", "saisim run [flags] [FILE... | name=v1,v2 ...]", stderr)
	csv := c.fs.Bool("csv", false, "studies: emit CSV rows instead of tables")
	plot := c.fs.Bool("plot", false, "studies: render each study's first column as an ASCII bar chart too")
	html := c.fs.String("html", "", "studies: also write a self-contained HTML report to this file")
	seeds := c.fs.Int("seeds", 0, "studies: run every cell under seeds 1..N instead of the study's Seeds")
	par := c.fs.Int("parallel", 1, "studies: run up to N simulations of each study concurrently")
	shards := c.fs.Int("shards", -1, "scenarios: override the shard count (-1 = keep)")
	c.runFlags()
	if code, ok := c.parse(args); !ok {
		return code
	}
	files, err := load(c.fs.Args())
	if err != nil {
		return c.fail(err)
	}
	// A flag that applies to none of the arguments is a usage error,
	// never silently ignored.
	var hasScenario, hasStudy bool
	for _, st := range files {
		hasScenario = hasScenario || st.IsScenario()
		hasStudy = hasStudy || !st.IsScenario()
	}
	set := map[string]bool{}
	c.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range []string{"csv", "plot", "html", "seeds", "parallel"} {
		if set[name] && !hasStudy {
			return c.fail(fmt.Errorf("-%s applies to studies, and no argument is one", name))
		}
	}
	switch {
	case set["shards"] && !hasScenario:
		return c.fail(errors.New("-shards applies to scenario files, and no argument is one"))
	case *plot && *csv:
		return c.fail(errors.New("-plot does not apply to -csv output"))
	}

	ctx, stop, err := c.start()
	if err != nil {
		return c.fail(err)
	}
	defer stop()
	exit := 0
	var reports []*scenario.StudyReport
	for _, st := range files {
		if st.IsScenario() {
			if *shards >= 0 {
				st.Config.Shards = *shards
			}
			rep, err := scenario.Run(ctx, &st.Scenario)
			if err != nil {
				exit = c.fail(err)
				break
			}
			fmt.Fprint(stdout, rep.Summary())
			if !rep.Passed() {
				exit = 1
			}
			continue
		}
		if set["seeds"] {
			st.Seeds = *seeds
		}
		start := time.Now() //lint:wallclock operator-facing elapsed-time note, not a figure input
		rep, err := scenario.RunStudy(ctx, st, *par)
		if rep != nil && len(rep.Rows) > 0 {
			reports = append(reports, rep)
			if rerr := render(stdout, rep, *csv, *plot); rerr != nil {
				exit = c.fail(rerr)
				break
			}
		}
		elapsed := time.Since(start).Round(time.Millisecond) //lint:wallclock operator-facing elapsed-time note, not a figure input
		if err != nil {
			if rep != nil && ctx.Err() != nil {
				// Graceful shutdown: the finished rows are printed above;
				// stop scheduling studies.
				fmt.Fprintf(stdout, "(%s interrupted after %v with %d rows)\n\n", st.Name, elapsed, len(rep.Rows))
				err = fmt.Errorf("run cancelled: %w", err)
			}
			exit = c.fail(err)
			break
		}
		if !*csv {
			fmt.Fprintf(stdout, "(%s completed in %v)\n\n", st.Name, elapsed)
		}
		if !rep.Passed() {
			fmt.Fprintf(stderr, "saisim: study %s:\n%s", st.Name, rep.Findings())
			exit = 1
		}
	}
	if *html != "" {
		if err := create(*html, func(w io.Writer) error { return scenario.WriteHTML(w, reports) }); err != nil {
			return c.fail(err)
		}
		fmt.Fprintf(stdout, "HTML report written to %s\n", *html)
	}
	return exit
}

// load resolves run's arguments before any simulation runs, so a typo
// fails fast: inline dims make one study over cluster.DefaultConfig,
// otherwise every argument is a scenario or study file, and no
// arguments means the paper. Every file goes through one decoder,
// scenario.LoadStudy.
func load(args []string) ([]*scenario.Study, error) {
	if slices.ContainsFunc(args, func(a string) bool { return strings.Contains(a, "=") }) {
		st, err := scenario.ParseSweep(cluster.DefaultConfig(), args)
		return []*scenario.Study{st}, err
	}
	if len(args) == 0 {
		args, _ = filepath.Glob(paperStudies) // the pattern is well-formed
		if len(args) == 0 {
			return nil, fmt.Errorf("no %s here; run from the repository root or name files", paperStudies)
		}
	}
	files := make([]*scenario.Study, len(args))
	for i, path := range args {
		var err error
		if files[i], err = scenario.LoadStudy(path); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// render prints one study report in the selected format.
func render(w io.Writer, rep *scenario.StudyReport, csv, plot bool) error {
	if csv {
		fmt.Fprint(w, rep.CSV())
		return nil
	}
	fmt.Fprintln(w, rep.Table())
	if plot {
		chart, err := rep.Chart()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, chart)
	}
	return nil
}

// validateCmd implements `saisim validate [FILE...]`: load the
// arguments exactly as `saisim run` does, the paper with none, and
// print nothing and exit 0 when all are valid, else print the error and
// exit 2.
func validateCmd(args []string, stderr io.Writer) int {
	c := newCommand("saisim validate", "saisim validate [FILE...]", stderr)
	if code, ok := c.parse(args); !ok {
		return code
	}
	if _, err := load(c.fs.Args()); err != nil {
		return c.fail(err)
	}
	return 0
}

// chaosCmd implements `saisim chaos [-n 20] [-seed 1] [FILE]`: N runs
// of a chaos scenario, each with a freshly derived (config seed, chaos
// seed) pair, every run checked against the full invariant suite. One
// root seed reproduces the whole soak.
func chaosCmd(args []string, stdout, stderr io.Writer) int {
	c := newCommand("saisim chaos", "saisim chaos [-n N] [-seed S] [-shards N] [FILE]", stderr)
	n := c.fs.Int("n", 20, "number of soak iterations")
	seed := c.fs.Uint64("seed", 1, "root seed; each iteration derives its own pair from it")
	shards := c.fs.Int("shards", -1, "override the scenario's shard count (-1 = keep)")
	if code, ok := c.parse(args); !ok {
		return code
	}
	if c.fs.NArg() > 1 {
		return c.fail(fmt.Errorf("chaos takes at most one scenario file, got %d", c.fs.NArg()))
	}
	if *n < 1 {
		code := c.fail(fmt.Errorf("chaos -n %d: the soak needs at least one iteration", *n))
		c.fs.Usage()
		return code
	}
	var base *scenario.Scenario
	var err error
	if path := c.fs.Arg(0); path != "" {
		base, err = scenario.Load(path)
	} else {
		base, err = scenario.Read(strings.NewReader(soakScenario))
	}
	if err != nil {
		return c.fail(err)
	}
	if *shards >= 0 {
		base.Config.Shards = *shards
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	failed := 0
	for i := 0; i < *n; i++ {
		s := *base
		if s.Chaos != nil {
			chaos := *s.Chaos
			chaos.Seed = rng.Derive(*seed, uint64(2*i+1))
			s.Chaos = &chaos
		}
		s.Config.Seed = rng.Derive(*seed, uint64(2*i))
		rep, err := scenario.Run(ctx, &s)
		if err != nil {
			return c.fail(err)
		}
		fmt.Fprintf(stdout, "soak %3d/%d seed=%d\n", i+1, *n, s.Config.Seed)
		fmt.Fprint(stdout, rep.Summary())
		if !rep.Passed() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "saisim: chaos soak: %d/%d iterations failed (root seed %d)\n",
			failed, *n, *seed)
		return 1
	}
	fmt.Fprintf(stdout, "chaos soak: %d/%d iterations clean\n", *n, *n)
	return 0
}

// soakScenario is the default soak: a small healing cluster (every
// chaos crash revives, retries on, no deadline) so any stranded strip
// is an invariant bug, not a configured outcome.
const soakScenario = `{
  "Name": "chaos-soak",
  "Config": {"Clients": 2, "Servers": 8, "ProcsPerClient": 2, "CoresPerClient": 4,
             "TransferSize": 262144, "BytesPerProc": 2097152, "RetryTimeout": 5000000, "MaxRetries": 200},
  "Policies": ["sais"],
  "Chaos": {"Horizon": 20000000, "Crashes": 2, "Stragglers": 2, "Storms": 1, "Degrades": 1, "Loss": 0.005},
  "Assertions": [{"Metric": "failed_ops", "Op": "==", "Value": 0},
                 {"Metric": "goodput_fraction", "Op": "==", "Value": 1}]
}`
