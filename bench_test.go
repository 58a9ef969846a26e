// Package sais holds the top-level benchmark harness: the speed of
// regenerating the paper's Figure 5-11 grid (studies/paper-1-grid.json)
// serially and across all cores, raw simulator throughput, the §VI
// memory-stream companion, and the sharded executor's scaling. The
// paper's results themselves are study files run by `saisim run`;
// the design ablations are studies/ablations.json.
package sais

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"sais/cluster"
	"sais/internal/irqsched"
	"sais/internal/memsim"
	"sais/internal/scenario"
	"sais/internal/units"
)

// BenchmarkPaperGrid regenerates the Figure 5-11 grid (both NIC rates,
// 4 transfer sizes × 4 server counts, irqbalance and SAIs) under one
// seed, serially and fanned out over all cores by the study runner; the
// ns/op ratio is the speed-up from `saisim run -parallel`.
func BenchmarkPaperGrid(b *testing.B) {
	st, err := scenario.LoadStudy("studies/paper-1-grid.json")
	if err != nil {
		b.Fatal(err)
	}
	st.Seeds = 1
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := scenario.RunStudy(context.Background(), st, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

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
