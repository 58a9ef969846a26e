package main

import (
	"fmt"

	"sais/cluster"
	"sais/internal/faults"
	"sais/internal/flowsim"
	"sais/internal/irqsched"
	"sais/internal/units"
)

// A workload is one cluster shape driven from this process. Runs holds
// the configs one repetition executes, in order; fig5-pair has two (the
// paper's irqbalance-then-sais A/B), the others one. Every config takes
// its seed from the command line and nothing else.
type workload struct {
	Name string
	Why  string
	Runs []cluster.Config
}

// paperFig5Gain is the paper's Figure 5 headline: SAIs over irqbalance
// at 48 servers with a 3-Gigabit client NIC.
const paperFig5Gain = 0.2357

// workloadNames lists the workloads in the order BENCHMARK.json names
// them.
var workloadNames = []string{"fig5-pair", "sharded-256", "hybrid-1m", "lossy-write"}

// Per-process byte budgets. Each is sized so one repetition takes a few
// hundred milliseconds on a 2-core host: short enough that a run of ten
// seconds holds enough repetitions for a steady median, long enough that
// setup stays a small share of the repetition.
const (
	fig5BytesPerProc    = 2 * units.GiB
	shardedBytesPerProc = 3 * units.MiB
	hybridBytesPerProc  = 48 * units.MiB
	lossyBytesPerProc   = 384 * units.MiB
)

// buildWorkload returns the named workload seeded with seed.
func buildWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "fig5-pair":
		// The Figure 5 peak cell: one 8-core client with a 3 Gbit NIC,
		// 48 servers, 1 MiB transfers, two IOR processes.
		cfg := cluster.DefaultConfig()
		cfg.Servers = 48
		cfg.TransferSize = units.MiB
		cfg.BytesPerProc = fig5BytesPerProc
		cfg.Seed = seed
		return workload{
			Name: name,
			Why:  "per-strip client path on one engine; the paper's A/B (irqbalance then sais) inside each repetition",
			Runs: []cluster.Config{cfg.WithPolicy(irqsched.PolicyIrqbalance), cfg.WithPolicy(irqsched.PolicySourceAware)},
		}, nil
	case "sharded-256":
		cfg := sharded256(seed)
		cfg.Shards, cfg.Workers = 2, 2
		return workload{
			Name: name,
			Why:  "the only workload where the shard round runs: 256 nodes over two engines and two workers",
			Runs: []cluster.Config{cfg},
		}, nil
	case "hybrid-1m":
		cfg := cluster.DefaultConfig()
		cfg.Policy = irqsched.PolicySourceAware
		cfg.ForegroundClients = 64
		cfg.Servers = 16
		cfg.CoresPerClient = 4
		cfg.ProcsPerClient = 1
		cfg.TransferSize = 256 * units.KiB
		cfg.BytesPerProc = hybridBytesPerProc
		cfg.BackgroundUsers = 1_000_000
		cfg.TenantMix = []flowsim.TenantShare{
			{Name: "stream", Share: 0.7, PerUserRate: 3000, Colocate: 0.15},
			{Name: "burst", Share: 0.3, PerUserRate: 2500, Shape: "burst",
				Period: 10 * units.Millisecond, Duty: 0.3, HotServers: 4},
		}
		cfg.Seed = seed
		return workload{
			Name: name,
			Why:  "1M analytic background users: flowsim rate ticks drive cpu.Submit and apic routing on every client",
			Runs: []cluster.Config{cfg},
		}, nil
	case "lossy-write":
		cfg := cluster.DefaultConfig()
		cfg.Policy = irqsched.PolicySourceAware
		cfg.Clients = 8
		cfg.Servers = 16
		cfg.BytesPerProc = lossyBytesPerProc
		cfg.WriteWorkload = true
		cfg.Faults = &faults.Plan{Loss: 0.005}
		cfg.RetryTimeout = 20 * units.Millisecond
		cfg.MaxRetries = 12
		cfg.Seed = seed
		return workload{
			Name: name,
			Why:  "writes through client, pfs and disk with 0.5% fabric loss: retry timers armed and cancelled, keyed loss in faults",
			Runs: []cluster.Config{cfg},
		}, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// sharded256 is the 256-node config (224 two-core clients, 32 servers,
// 16 KiB strips) on one engine; buildWorkload shards it.
func sharded256(seed uint64) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Policy = irqsched.PolicySourceAware
	cfg.Clients = 224
	cfg.Servers = 32
	cfg.CoresPerClient = 2
	cfg.ProcsPerClient = 1
	cfg.CachePerCore = 64 * units.KiB
	cfg.StripSize = 16 * units.KiB
	cfg.TransferSize = 64 * units.KiB
	cfg.BytesPerProc = shardedBytesPerProc
	cfg.Seed = seed
	return cfg
}
