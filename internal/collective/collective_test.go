package collective

import (
	"testing"

	"sais/internal/client"
	"sais/internal/irqsched"
	"sais/internal/netsim"
	"sais/internal/pfs"
	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/units"
)

// rig builds one client with ns servers and an MDS.
func rig(t *testing.T, policy irqsched.PolicyKind, ns int) (*sim.Engine, *client.Node) {
	t.Helper()
	eng := sim.NewEngine()
	fab := netsim.NewFabric(eng, 10*units.Microsecond, 256)
	ccfg := client.DefaultConfig(1, 3*units.Gigabit, policy)
	ccfg.MDS = 50
	node := client.MustNew(eng, fab, ccfg)
	servers := make([]netsim.NodeID, ns)
	rnd := rng.New(5)
	for i := range servers {
		servers[i] = netsim.NodeID(100 + i)
		scfg := pfs.DefaultServerConfig(units.Gigabit)
		scfg.EchoHints = true
		scfg.Disk.RotationPeriod = 0
		scfg.Disk.MediaRate = units.Rate(400 * units.MBps)
		pfs.NewServer(eng, fab, servers[i], scfg, rnd)
	}
	layout := pfs.Layout{StripSize: 64 * units.KiB, Servers: servers}
	pfs.NewMetadataServer(eng, fab, 50, pfs.DefaultMetadataConfig(units.Gigabit),
		func(pfs.FileID) pfs.Layout { return layout })
	return eng, node
}

func TestCollectiveReadCompletes(t *testing.T) {
	eng, node := rig(t, irqsched.PolicySourceAware, 4)
	procs := []*client.Proc{
		node.NewProc(0, 0), node.NewProc(1, 1),
		node.NewProc(2, 2), node.NewProc(3, 3),
	}
	var got *Result
	eng.At(0, func(units.Time) {
		err := Read(eng, node, procs, 1, 0, units.MiB, Config{Aggregators: 2}, func(r *Result) { got = r })
		if err != nil {
			t.Fatal(err)
		}
	})
	eng.RunUntilIdle()
	if got == nil {
		t.Fatal("collective read never completed")
	}
	if got.Bytes != 4*units.MiB {
		t.Errorf("bytes = %v, want 4MiB", got.Bytes)
	}
	if got.Domains != 2 {
		t.Errorf("domains = %d, want 2", got.Domains)
	}
	// Aggregators are procs 0 and 1. Proc 0's MiB sits in aggregator
	// 0's domain (stays); procs 1-3 each pull their MiB from an
	// aggregator — 3 MiB of redistribution.
	if got.Redistributed != 3*units.MiB {
		t.Errorf("redistributed = %v, want 3MiB", got.Redistributed)
	}
	if got.Finished <= 0 {
		t.Error("no finish time")
	}
	// PFS served the full range exactly once.
	if node.Stats().BytesRead != 4*units.MiB {
		t.Errorf("PFS bytes = %v", node.Stats().BytesRead)
	}
}

func TestSingleAggregatorMovesAlmostEverything(t *testing.T) {
	eng, node := rig(t, irqsched.PolicySourceAware, 4)
	procs := []*client.Proc{node.NewProc(0, 0), node.NewProc(1, 1), node.NewProc(2, 2)}
	var got *Result
	eng.At(0, func(units.Time) {
		if err := Read(eng, node, procs, 1, 0, 512*units.KiB, Config{Aggregators: 1}, func(r *Result) { got = r }); err != nil {
			t.Fatal(err)
		}
	})
	eng.RunUntilIdle()
	if got == nil {
		t.Fatal("never completed")
	}
	// Procs 1 and 2 pull their halves from the single aggregator.
	if got.Redistributed != units.MiB {
		t.Errorf("redistributed = %v, want 1MiB", got.Redistributed)
	}
	// The node's cache books must show the cache-to-cache traffic.
	if node.Caches().Aggregate().RemoteTransfers == 0 {
		t.Error("no remote transfers recorded for the scatter")
	}
}

func TestAggregatorsCappedAtProcs(t *testing.T) {
	eng, node := rig(t, irqsched.PolicySourceAware, 2)
	procs := []*client.Proc{node.NewProc(0, 0)}
	var got *Result
	eng.At(0, func(units.Time) {
		if err := Read(eng, node, procs, 1, 0, 256*units.KiB, Config{Aggregators: 8}, func(r *Result) { got = r }); err != nil {
			t.Fatal(err)
		}
	})
	eng.RunUntilIdle()
	if got == nil || got.Domains != 1 {
		t.Fatalf("result = %+v", got)
	}
	if got.Redistributed != 0 {
		t.Errorf("self-read redistributed %v", got.Redistributed)
	}
}

func TestValidation(t *testing.T) {
	eng, node := rig(t, irqsched.PolicySourceAware, 2)
	p := []*client.Proc{node.NewProc(0, 0)}
	if err := Read(eng, node, p, 1, 0, units.MiB, Config{}, nil); err == nil {
		t.Error("zero aggregators accepted")
	}
	if err := Read(eng, node, nil, 1, 0, units.MiB, Config{Aggregators: 1}, nil); err == nil {
		t.Error("empty procs accepted")
	}
	if err := Read(eng, node, p, 1, 0, 0, Config{Aggregators: 1}, nil); err == nil {
		t.Error("zero bytes accepted")
	}
}

func TestCollectiveVersusIndependentUnderBalancedPolicy(t *testing.T) {
	// Under irqbalance, collective I/O concentrates the strips on the
	// aggregators: total migrated volume should not exceed independent
	// reads' (every strip migrates there too) and the requests are
	// fewer and larger. This is a smoke comparison, not a benchmark.
	runCollective := func() units.Time {
		eng, node := rig(t, irqsched.PolicyIrqbalance, 8)
		procs := make([]*client.Proc, 4)
		for i := range procs {
			procs[i] = node.NewProc(i, i)
		}
		eng.At(0, func(units.Time) {
			if err := Read(eng, node, procs, 1, 0, units.MiB, Config{Aggregators: 2}, func(*Result) {}); err != nil {
				t.Fatal(err)
			}
		})
		return eng.RunUntilIdle()
	}
	runIndependent := func() units.Time {
		eng, node := rig(t, irqsched.PolicyIrqbalance, 8)
		for i := 0; i < 4; i++ {
			p := node.NewProc(i, i)
			i := i
			eng.At(0, func(units.Time) {
				p.Read(1, units.Bytes(i)*units.MiB, units.MiB, nil)
			})
		}
		return eng.RunUntilIdle()
	}
	tc, ti := runCollective(), runIndependent()
	if tc <= 0 || ti <= 0 {
		t.Fatal("runs did not progress")
	}
	// Both must terminate in the same order of magnitude; the exact
	// winner depends on the domain/transfer geometry.
	if tc > 10*ti || ti > 10*tc {
		t.Errorf("collective %v vs independent %v implausibly far apart", tc, ti)
	}
}

func TestBaseOffsetAdvances(t *testing.T) {
	eng, node := rig(t, irqsched.PolicySourceAware, 4)
	procs := []*client.Proc{node.NewProc(0, 0), node.NewProc(1, 1)}
	var first, second *Result
	eng.At(0, func(units.Time) {
		err := Read(eng, node, procs, 1, 0, 512*units.KiB, Config{Aggregators: 2}, func(r *Result) {
			first = r
			err := Read(eng, node, procs, 1, units.MiB, 512*units.KiB, Config{Aggregators: 2}, func(r2 *Result) {
				second = r2
			})
			if err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	eng.RunUntilIdle()
	if first == nil || second == nil {
		t.Fatal("rounds did not complete")
	}
	if node.Stats().BytesRead != 2*units.MiB {
		t.Errorf("total read = %v, want 2MiB", node.Stats().BytesRead)
	}
	if err := Read(eng, node, procs, 1, -1, units.KiB, Config{Aggregators: 1}, nil); err == nil {
		t.Error("negative base accepted")
	}
}
