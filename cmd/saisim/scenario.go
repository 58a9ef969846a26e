package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"sais/cluster"
	"sais/internal/rng"
	"sais/internal/scenario"
	"sais/internal/units"
)

// runScenarioCmd implements `saisim run scenario.json...`: load each
// scenario, execute it under every listed policy, check invariants and
// assertions, and print one PASS/FAIL line per run. Exit 0 when all
// pass, 1 on a violated invariant or failed assertion, 2 on a bad
// scenario file or interrupted run.
func runScenarioCmd(args []string) int {
	fs := flag.NewFlagSet("saisim run", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: saisim run [-shards N] scenario.json...")
		fs.PrintDefaults()
	}
	shards := fs.Int("shards", -1, "override the scenario's shard count (-1 = keep)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	exit := 0
	for _, path := range fs.Args() {
		s, err := scenario.Load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "saisim:", err)
			return 2
		}
		if *shards >= 0 {
			s.Config.Shards = *shards
		}
		rep, err := scenario.Run(ctx, s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "saisim:", err)
			return 2
		}
		fmt.Print(rep.Summary())
		if !rep.Passed() {
			exit = 1
		}
	}
	return exit
}

// chaosSoakCmd implements `saisim chaos [-n 20] [-seed 1]`: N runs of
// a chaos scenario, each with a freshly derived (config seed, chaos
// seed) pair, every run checked against the full invariant suite. One
// root seed reproduces the whole soak.
func chaosSoakCmd(args []string) int {
	fs := flag.NewFlagSet("saisim chaos", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: saisim chaos [-n N] [-seed S] [-scenario file.json] [-shards N]")
		fs.PrintDefaults()
	}
	n := fs.Int("n", 20, "number of soak iterations")
	seed := fs.Uint64("seed", 1, "root seed; each iteration derives its own pair from it")
	scenPath := fs.String("scenario", "", "base chaos scenario (default: built-in soak config)")
	shards := fs.Int("shards", -1, "override the scenario's shard count (-1 = keep)")
	fs.Parse(args)

	base, err := soakScenario(*scenPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "saisim:", err)
		return 2
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
			fmt.Fprintln(os.Stderr, "saisim:", err)
			return 2
		}
		fmt.Printf("soak %3d/%d seed=%d\n", i+1, *n, s.Config.Seed)
		fmt.Print(rep.Summary())
		if !rep.Passed() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "saisim: chaos soak: %d/%d iterations failed (root seed %d)\n",
			failed, *n, *seed)
		return 1
	}
	fmt.Printf("chaos soak: %d/%d iterations clean\n", *n, *n)
	return 0
}

// soakScenario loads the base scenario for the soak, or builds the
// default: a small healing cluster (every chaos crash revives, retries
// on, no deadline) so any stranded strip is an invariant bug, not a
// configured outcome.
func soakScenario(path string) (*scenario.Scenario, error) {
	if path != "" {
		return scenario.Load(path)
	}
	cfg := cluster.DefaultConfig()
	cfg.Clients = 2
	cfg.Servers = 8
	cfg.ProcsPerClient = 2
	cfg.CoresPerClient = 4
	cfg.TransferSize = 256 * units.KiB
	cfg.BytesPerProc = 2 * units.MiB
	cfg.RetryTimeout = 5 * units.Millisecond
	cfg.MaxRetries = 200
	s := &scenario.Scenario{
		Name:     "chaos-soak",
		Config:   cfg,
		Policies: []string{"sais"},
		Chaos: &scenario.ChaosSpec{
			Horizon:    20 * units.Millisecond,
			Crashes:    2,
			Stragglers: 2,
			Storms:     1,
			Degrades:   1,
			Loss:       0.005,
		},
		Assertions: []scenario.Assertion{
			{Metric: "failed_ops", Op: "==", Value: 0},
			{Metric: "goodput_fraction", Op: "==", Value: 1},
		},
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
