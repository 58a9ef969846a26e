// Package sais holds the top-level benchmark harness: one testing.B
// benchmark per table/figure of the paper's evaluation. Each benchmark
// runs the corresponding experiment (baseline vs SAIs over the figure's
// sweep) and reports the peak relative change as a custom metric
// (`peak_change_%`), alongside the usual ns/op — so `go test -bench=.`
// regenerates the paper's headline numbers. Ablation benchmarks cover
// the design choices DESIGN.md calls out.
package sais

import (
	"fmt"
	"runtime"
	"testing"

	"sais/cluster"
	"sais/experiments"
	"sais/internal/irqsched"
	"sais/internal/memsim"
	"sais/internal/netsim"
	"sais/internal/units"
)

// runExperiment executes one figure with a single seed per iteration
// and reports its peak change.
func runExperiment(b *testing.B, e experiments.Experiment) {
	b.Helper()
	e.Seeds = 1
	var peak float64
	for i := 0; i < b.N; i++ {
		rep, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		peak, _ = rep.BestChange()
	}
	b.ReportMetric(peak*100, "peak_change_%")
}

// BenchmarkFigure5 regenerates the 3-Gigabit bandwidth comparison
// (paper: peak speed-up 23.57 % at 48 servers).
func BenchmarkFigure5(b *testing.B) { runExperiment(b, experiments.Figure5()) }

// BenchmarkFigure5Parallel is BenchmarkFigure5 fanned out over all
// cores by the internal/runner orchestration layer — the ns/op ratio
// to the serial benchmark is the figure-suite speed-up from -parallel.
func BenchmarkFigure5Parallel(b *testing.B) {
	e := experiments.Figure5()
	e.Parallel = runtime.GOMAXPROCS(0)
	runExperiment(b, e)
}

// BenchmarkBandwidth1G regenerates the §V.C 1-Gigabit bandwidth result
// (paper: peak speed-up 6.05 %, NIC-bound).
func BenchmarkBandwidth1G(b *testing.B) { runExperiment(b, experiments.Figure5OneGig()) }

// BenchmarkFigure6 regenerates the 1-Gigabit L2 miss-rate comparison.
func BenchmarkFigure6(b *testing.B) { runExperiment(b, experiments.Figure6()) }

// BenchmarkFigure7 regenerates the 3-Gigabit L2 miss-rate comparison
// (paper: ≈40 % reduction).
func BenchmarkFigure7(b *testing.B) { runExperiment(b, experiments.Figure7()) }

// BenchmarkFigure8 regenerates the 1-Gigabit CPU utilization figure.
func BenchmarkFigure8(b *testing.B) { runExperiment(b, experiments.Figure8()) }

// BenchmarkFigure9 regenerates the 3-Gigabit CPU utilization figure.
func BenchmarkFigure9(b *testing.B) { runExperiment(b, experiments.Figure9()) }

// BenchmarkFigure10 regenerates the 1-Gigabit CPU_CLK_UNHALTED figure
// (paper: up to 27.14 % improvement).
func BenchmarkFigure10(b *testing.B) { runExperiment(b, experiments.Figure10()) }

// BenchmarkFigure11 regenerates the 3-Gigabit CPU_CLK_UNHALTED figure
// (paper: up to 48.57 % improvement).
func BenchmarkFigure11(b *testing.B) { runExperiment(b, experiments.Figure11()) }

// BenchmarkFigure12 regenerates the multi-client scalability figure
// (paper: +20.46 % at 8 clients decaying to +1.39 % at 56).
func BenchmarkFigure12(b *testing.B) { runExperiment(b, experiments.Figure12()) }

// BenchmarkFigure14 regenerates the §VI no-NIC-bottleneck figure
// (paper: peak +53.23 %, convergence once apps ≥ cores).
func BenchmarkFigure14(b *testing.B) { runExperiment(b, experiments.Figure14()) }

// BenchmarkMemSim runs the real-execution §VI companion (Si-SAIs vs
// Si-Irqbalance memory streams) and reports the measured speed-up.
func BenchmarkMemSim(b *testing.B) {
	cfg := memsim.DefaultConfig()
	cfg.Requests = 32
	var speedup float64
	for i := 0; i < b.N; i++ {
		s, err := memsim.RunSiSAIs(cfg)
		if err != nil {
			b.Fatal(err)
		}
		irqb, err := memsim.RunSiIrqbalance(cfg)
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(s.Rate)/float64(irqb.Rate) - 1
	}
	b.ReportMetric(speedup*100, "peak_change_%")
}

// BenchmarkShardedScaling measures the sharded executor on a 256-node
// cluster (224 clients, 32 servers) across shard counts. Every shard
// count computes the identical result (asserted by the cluster
// package's differential tests) on one goroutine, so the rows track
// the cost of partitioning itself: the extra rounds, mailbox traffic
// and per-shard fabrics over the single-engine run.
func BenchmarkShardedScaling(b *testing.B) {
	cfg := cluster.DefaultConfig()
	cfg.Clients = 224
	cfg.Servers = 32
	cfg.CoresPerClient = 2
	cfg.ProcsPerClient = 1
	cfg.CachePerCore = 64 * units.KiB
	cfg.StripSize = 16 * units.KiB
	cfg.TransferSize = 64 * units.KiB
	cfg.BytesPerProc = 256 * units.KiB
	cfg.Policy = irqsched.PolicySourceAware
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := cfg
			c.Shards = shards
			var bw units.Rate
			for i := 0; i < b.N; i++ {
				res, err := cluster.Run(c)
				if err != nil {
					b.Fatal(err)
				}
				bw = res.Bandwidth
			}
			b.ReportMetric(float64(bw)/1e6, "sim_MB/s")
		})
	}
}

// --- ablation benchmarks (DESIGN.md §6) ---

// abCfg is the shared ablation configuration.
func abCfg() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Servers = 32
	cfg.BytesPerProc = 16 * units.MiB
	return cfg
}

// pairSpeedup runs irqbalance vs SAIs once and returns the bandwidth
// speed-up.
func pairSpeedup(b *testing.B, cfg cluster.Config) float64 {
	b.Helper()
	base, err := cluster.Run(cfg.WithPolicy(irqsched.PolicyIrqbalance))
	if err != nil {
		b.Fatal(err)
	}
	sais, err := cluster.Run(cfg.WithPolicy(irqsched.PolicySourceAware))
	if err != nil {
		b.Fatal(err)
	}
	return float64(sais.Bandwidth)/float64(base.Bandwidth) - 1
}

// BenchmarkAblationMPRatio sweeps the migration cost M — the knob the
// paper's M >> P assumption hinges on. The reported metric is the
// speed-up at the crossover-adjacent low-M point; the full sweep is in
// examples/ablation.
func BenchmarkAblationMPRatio(b *testing.B) {
	for _, remote := range []struct {
		name string
		cost units.Time
	}{{"M~P", 20}, {"M=5P", 110}, {"M=10P", 200}, {"M=20P", 400}} {
		remote := remote
		b.Run(remote.name, func(b *testing.B) {
			cfg := abCfg()
			cfg.Costs.RemoteLine = remote.cost
			var s float64
			for i := 0; i < b.N; i++ {
				s = pairSpeedup(b, cfg)
			}
			b.ReportMetric(s*100, "peak_change_%")
		})
	}
}

// BenchmarkAblationCoalescing verifies the gain survives interrupt
// coalescing (placement, not interrupt count, is what matters).
func BenchmarkAblationCoalescing(b *testing.B) {
	for _, frames := range []int{1, 8, 32} {
		frames := frames
		b.Run(map[int]string{1: "per-frame", 8: "x8", 32: "x32"}[frames], func(b *testing.B) {
			cfg := abCfg()
			cfg.CoalesceFrames = frames
			cfg.CoalesceDelay = 100 * units.Microsecond
			var s float64
			for i := 0; i < b.N; i++ {
				s = pairSpeedup(b, cfg)
			}
			b.ReportMetric(s*100, "peak_change_%")
		})
	}
}

// BenchmarkAblationWakeMigration quantifies the paper's policy (i) vs
// (ii) distinction: how much of the gain survives when processes hop
// cores on wake.
func BenchmarkAblationWakeMigration(b *testing.B) {
	for _, p := range []struct {
		name string
		prob float64
	}{{"pinned", 0}, {"migrate-5pct", 0.05}, {"migrate-always", 1}} {
		p := p
		b.Run(p.name, func(b *testing.B) {
			cfg := abCfg()
			cfg.MigrateDuringBlock = p.prob
			var s float64
			for i := 0; i < b.N; i++ {
				s = pairSpeedup(b, cfg)
			}
			b.ReportMetric(s*100, "peak_change_%")
		})
	}
}

// BenchmarkAblationIrqbalancePeriod sweeps the daemon's rebalance
// period; faster rebalancing does not recover locality.
func BenchmarkAblationIrqbalancePeriod(b *testing.B) {
	for _, period := range []struct {
		name string
		d    units.Time
	}{{"1ms", units.Millisecond}, {"10ms", 10 * units.Millisecond}, {"100ms", 100 * units.Millisecond}} {
		period := period
		b.Run(period.name, func(b *testing.B) {
			cfg := abCfg()
			cfg.IrqbalancePeriod = period.d
			var s float64
			for i := 0; i < b.N; i++ {
				s = pairSpeedup(b, cfg)
			}
			b.ReportMetric(s*100, "peak_change_%")
		})
	}
}

// BenchmarkAblationStripSize sweeps the PVFS strip size around the
// testbed's 64 KiB.
func BenchmarkAblationStripSize(b *testing.B) {
	for _, strip := range []units.Bytes{16 * units.KiB, 64 * units.KiB, 256 * units.KiB} {
		strip := strip
		b.Run(strip.String(), func(b *testing.B) {
			cfg := abCfg()
			cfg.StripSize = strip
			var s float64
			for i := 0; i < b.N; i++ {
				s = pairSpeedup(b, cfg)
			}
			b.ReportMetric(s*100, "peak_change_%")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed: simulated
// bytes per wall-clock second for the default configuration, the
// metric that bounds how large an experiment is practical.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := cluster.DefaultConfig()
	cfg.BytesPerProc = 8 * units.MiB
	var bytes int64
	for i := 0; i < b.N; i++ {
		res, err := cluster.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bytes += int64(res.TotalBytes)
	}
	b.SetBytes(bytes / int64(b.N))
}

// BenchmarkAblationBondedNIC compares the single-3-Gbit-port model with
// the testbed's physical 3×1-Gbit bond under both bonding modes.
func BenchmarkAblationBondedNIC(b *testing.B) {
	for _, mode := range []struct {
		name  string
		ports int
		bond  netsim.BondMode
	}{
		{"single-3G", 1, netsim.BondRoundRobin},
		{"bond-rr-3x1G", 3, netsim.BondRoundRobin},
		{"bond-hash-3x1G", 3, netsim.BondFlowHash},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			cfg := abCfg()
			cfg.ClientNICPorts = mode.ports
			cfg.ClientBondMode = mode.bond
			var s float64
			for i := 0; i < b.N; i++ {
				s = pairSpeedup(b, cfg)
			}
			b.ReportMetric(s*100, "peak_change_%")
		})
	}
}

// BenchmarkAblationPolicyII compares the paper's scheduling policy (i)
// — follow the request-time hint — with policy (ii) — follow the
// process's current core — under forced mid-block migration. Without
// migration the two are identical (§III calls the difference trivial).
func BenchmarkAblationPolicyII(b *testing.B) {
	for _, v := range []struct {
		name    string
		migrate float64
		current bool
	}{
		{"pinned-policy-i", 0, false},
		{"migrating-policy-i", 0.25, false},
		{"migrating-policy-ii", 0.25, true},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			cfg := abCfg()
			cfg.MigrateDuringBlock = v.migrate
			cfg.CurrentCoreHint = v.current
			var s float64
			for i := 0; i < b.N; i++ {
				s = pairSpeedup(b, cfg)
			}
			b.ReportMetric(s*100, "peak_change_%")
		})
	}
}

// BenchmarkAblationL3 measures the effect of the Opteron's shared
// per-socket L3 victim cache on the SAIs-vs-irqbalance comparison.
// The calibrated baseline runs without it (evictions cost a DRAM
// fill); enabling it softens SAIs' self-eviction penalty on transfers
// larger than the private L2.
func BenchmarkAblationL3(b *testing.B) {
	for _, l3 := range []struct {
		name string
		size units.Bytes
	}{{"no-L3", 0}, {"6MiB-L3", 6 * units.MiB}} {
		l3 := l3
		b.Run(l3.name, func(b *testing.B) {
			cfg := abCfg()
			cfg.L3PerSocket = l3.size
			var s float64
			for i := 0; i < b.N; i++ {
				s = pairSpeedup(b, cfg)
			}
			b.ReportMetric(s*100, "peak_change_%")
		})
	}
}

// BenchmarkAblationSocketHints compares exact-core hints against
// socket-granular hints and no hints at all — the hint-precision axis.
func BenchmarkAblationSocketHints(b *testing.B) {
	run := func(b *testing.B, treatment irqsched.PolicyKind) {
		cfg := abCfg()
		var s float64
		for i := 0; i < b.N; i++ {
			base, err := cluster.Run(cfg.WithPolicy(irqsched.PolicyIrqbalance))
			if err != nil {
				b.Fatal(err)
			}
			treat, err := cluster.Run(cfg.WithPolicy(treatment))
			if err != nil {
				b.Fatal(err)
			}
			s = float64(treat.Bandwidth)/float64(base.Bandwidth) - 1
		}
		b.ReportMetric(s*100, "peak_change_%")
	}
	b.Run("exact-core", func(b *testing.B) { run(b, irqsched.PolicySourceAware) })
	b.Run("socket-only", func(b *testing.B) { run(b, irqsched.PolicySocketAware) })
	b.Run("flow-hash", func(b *testing.B) { run(b, irqsched.PolicyFlowHash) })
}
