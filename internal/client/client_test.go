package client

import (
	"testing"

	"sais/internal/apic"
	"sais/internal/cpu"
	"sais/internal/irqsched"
	"sais/internal/netsim"
	"sais/internal/pfs"
	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/units"
)

// rig is a minimal cluster: one client, one MDS, ns I/O servers.
type rig struct {
	eng     *sim.Engine
	fab     *netsim.Fabric
	node    *Node
	servers []*pfs.Server
	layout  pfs.Layout
}

// mustNew builds a client node from a configuration the test knows is
// valid.
func mustNew(t testing.TB, eng *sim.Engine, fab *netsim.Fabric, cfg Config) *Node {
	t.Helper()
	n, err := New(eng, fab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func newRig(t *testing.T, policy irqsched.PolicyKind, ns int) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine()}
	r.fab = netsim.NewFabric(r.eng, 20*units.Microsecond, 256)

	cfg := DefaultConfig(1, 3*units.Gigabit, policy)
	cfg.MDS = 50
	r.node = mustNew(t, r.eng, r.fab, cfg)

	servers := make([]netsim.NodeID, ns)
	rnd := rng.New(7)
	for i := 0; i < ns; i++ {
		id := netsim.NodeID(100 + i)
		servers[i] = id
		scfg := pfs.DefaultServerConfig(units.Gigabit)
		scfg.Disk.RotationPeriod = 0
		// Fast media keeps the rig client-bound: these tests exercise
		// the client's interrupt path, not the storage substrate.
		scfg.Disk.MediaRate = units.Rate(400 * units.MBps)
		r.servers = append(r.servers, pfs.NewServer(r.eng, r.fab, id, scfg, rnd))
	}
	r.layout = pfs.Layout{StripSize: 64 * units.KiB, Servers: servers}
	pfs.NewMetadataServer(r.eng, r.fab, 50, pfs.DefaultMetadataConfig(units.Gigabit),
		func(pfs.FileID) pfs.Layout { return r.layout })
	return r
}

func TestSingleReadCompletes(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 4)
	p := r.node.NewProc(2)
	var doneAt units.Time
	r.eng.At(0, func(units.Time) {
		p.Read(1, 0, units.MiB, func(now units.Time) { doneAt = now })
	})
	r.eng.RunUntilIdle()
	if doneAt == 0 {
		t.Fatal("read never completed")
	}
	st := r.node.Stats()
	if st.BytesRead != units.MiB || st.Transfers != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.MetadataTrips != 1 {
		t.Errorf("metadata trips = %d, want 1", st.MetadataTrips)
	}
}

func TestSAIsKeepsStripsLocal(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 4)
	p := r.node.NewProc(3)
	r.eng.At(0, func(units.Time) {
		p.Read(1, 0, units.MiB, nil)
	})
	r.eng.RunUntilIdle()
	agg := r.node.Caches().Aggregate()
	if agg.RemoteTransfers != 0 {
		t.Errorf("SAIs produced %d remote line transfers, want 0", agg.RemoteTransfers)
	}
	if agg.Hits == 0 {
		t.Error("SAIs produced no local hits")
	}
	// All strip interrupts must have carried the hint.
	if got := r.node.Stats().HintedIRQs; got == 0 {
		t.Error("no hinted IRQs recorded")
	}
	// All strips were consumed on core 3, which ran the compute.
	if r.node.CPU().Core(3).Stats().ByCategory[cpu.CatCompute] == 0 {
		t.Error("consuming core did no compute")
	}
}

func TestBalancedPoliciesMigrate(t *testing.T) {
	for _, pol := range []irqsched.PolicyKind{irqsched.PolicyRoundRobin, irqsched.PolicyIrqbalance} {
		r := newRig(t, pol, 4)
		p := r.node.NewProc(3)
		r.eng.At(0, func(units.Time) { p.Read(1, 0, units.MiB, nil) })
		r.eng.RunUntilIdle()
		agg := r.node.Caches().Aggregate()
		if agg.RemoteTransfers == 0 && agg.MemoryFills == 0 {
			t.Errorf("%v: no migration or memory traffic; strips were all handled on the consuming core", pol)
		}
		if agg.MissRate() <= 0 {
			t.Errorf("%v: zero miss rate", pol)
		}
	}
}

func TestDedicatedPolicy(t *testing.T) {
	r := newRig(t, irqsched.PolicyDedicated, 2)
	p := r.node.NewProc(3)
	r.eng.At(0, func(units.Time) { p.Read(1, 0, 256*units.KiB, nil) })
	r.eng.RunUntilIdle()
	// All softirq work must have landed on core 0 (the default
	// dedicated core).
	for i := 1; i < 8; i++ {
		if got := r.node.CPU().Core(i).Stats().ByCategory[1]; got != 0 && i != 3 {
			t.Errorf("core %d did softirq work under dedicated policy", i)
		}
	}
	if r.node.CPU().Core(0).Stats().ByCategory[1] == 0 {
		t.Error("dedicated core 0 did no softirq work")
	}
}

func TestSAIsFasterThanBalanced(t *testing.T) {
	// The headline claim at micro scale: identical workload, the
	// source-aware run finishes sooner.
	run := func(policy irqsched.PolicyKind) units.Time {
		r := newRig(t, policy, 8)
		procs := 4
		var remaining = procs * 8 // transfers
		for i := 0; i < procs; i++ {
			p := r.node.NewProc(i)
			var loop func(k int) sim.Event
			loop = func(k int) sim.Event {
				return func(units.Time) {
					remaining--
					if k < 7 {
						p.Read(pfs.FileID(i+1), units.Bytes(k+1)*units.MiB, units.MiB, loop(k+1))
					}
				}
			}
			i := i
			r.eng.At(0, func(units.Time) {
				p.Read(pfs.FileID(i+1), 0, units.MiB, loop(0))
			})
		}
		return r.eng.RunUntilIdle()
	}
	sais := run(irqsched.PolicySourceAware)
	balanced := run(irqsched.PolicyIrqbalance)
	if sais >= balanced {
		t.Errorf("SAIs makespan %v not better than irqbalance %v", sais, balanced)
	}
}

func TestLayoutFetchedOncePerFile(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 2)
	p := r.node.NewProc(0)
	q := r.node.NewProc(1)
	r.eng.At(0, func(units.Time) {
		p.Read(1, 0, 128*units.KiB, nil)
		q.Read(1, 128*units.KiB, 128*units.KiB, nil) // same file, parked behind open
	})
	r.eng.RunUntilIdle()
	st := r.node.Stats()
	if st.MetadataTrips != 1 {
		t.Errorf("metadata trips = %d, want 1 (second read parks)", st.MetadataTrips)
	}
	if st.Transfers != 2 {
		t.Errorf("transfers = %d, want 2", st.Transfers)
	}
}

func TestMigrateDuringBlockDefeatsHints(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 4)
	// Force migration on every wake.
	cfg := r.node.cfg
	cfg.MigrateDuringBlock = 1
	r.node.cfg = cfg
	p := r.node.NewProc(3)
	r.eng.At(0, func(units.Time) { p.Read(1, 0, units.MiB, nil) })
	r.eng.RunUntilIdle()
	if p.core == 3 {
		t.Error("process did not migrate")
	}
	agg := r.node.Caches().Aggregate()
	if agg.RemoteTransfers == 0 {
		t.Error("migrated process should pull strips from the old core")
	}
}

func TestConservationBytesRequestedEqualsConsumed(t *testing.T) {
	r := newRig(t, irqsched.PolicyRoundRobin, 4)
	p := r.node.NewProc(0)
	const transfers = 5
	size := 512 * units.KiB
	issued := 0
	var loop sim.Event
	loop = func(units.Time) {
		issued++
		if issued < transfers {
			p.Read(1, units.Bytes(issued)*size, size, loop)
		}
	}
	r.eng.At(0, func(units.Time) { p.Read(1, 0, size, loop) })
	r.eng.RunUntilIdle()
	want := units.Bytes(transfers) * size
	if got := r.node.Stats().BytesRead; got != want {
		t.Errorf("consumed %v, want %v", got, want)
	}
	// Server-side sent bytes match too.
	var sent units.Bytes
	for _, s := range r.servers {
		sent += s.Stats().BytesSent
	}
	if sent != want {
		t.Errorf("servers sent %v, want %v", sent, want)
	}
}

func TestDeterminismFullStack(t *testing.T) {
	run := func() (units.Time, uint64) {
		r := newRig(t, irqsched.PolicyIrqbalance, 4)
		for i := 0; i < 3; i++ {
			p := r.node.NewProc(i)
			i := i
			r.eng.At(0, func(units.Time) {
				p.Read(pfs.FileID(i+1), 0, units.MiB, nil)
			})
		}
		end := r.eng.RunUntilIdle()
		return end, r.eng.Fired()
	}
	t1, f1 := run()
	t2, f2 := run()
	if t1 != t2 || f1 != f2 {
		t.Errorf("runs differ: (%v,%d) vs (%v,%d)", t1, f1, t2, f2)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	fab := netsim.NewFabric(eng, 0, 256)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"SAIs with 64 cores (5-bit hint limit)", func(c *Config) { c.Cores = 64 }},
		{"MigrateDuringBlock out of range", func(c *Config) { c.MigrateDuringBlock = 2 }},
		{"negative L3", func(c *Config) { c.L3PerSocket = -1 }},
		{"negative irqbalance period", func(c *Config) { c.IrqbalancePeriod = -1 }},
		{"negative timeslice", func(c *Config) { c.TimesliceQuantum = -1 }},
		{"negative cost", func(c *Config) { c.Costs.RemoteLine = -1 }},
		{"empty rx ring", func(c *Config) { c.NIC.RingSize = 0 }},
	}
	for i, tc := range cases {
		bad := DefaultConfig(netsim.NodeID(1+i), units.Gigabit, irqsched.PolicySourceAware)
		tc.mut(&bad)
		if _, err := New(eng, fab, bad); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestNewProcValidation(t *testing.T) {
	r := newRig(t, irqsched.PolicyRoundRobin, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range proc core did not panic")
		}
	}()
	r.node.NewProc(99)
}

func TestCPUAccountingMatchesWork(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 4)
	p := r.node.NewProc(1)
	r.eng.At(0, func(units.Time) { p.Read(1, 0, units.MiB, nil) })
	r.eng.RunUntilIdle()
	total := r.node.CPU().TotalStats()
	// 16 strips: softirq, irq, compute must all be nonzero; migration
	// must be zero under SAIs with no wake migration.
	if total.ByCategory[0] == 0 || total.ByCategory[1] == 0 || total.ByCategory[4] == 0 {
		t.Errorf("categories = %v", total.ByCategory)
	}
	if total.ByCategory[2] != 0 {
		t.Errorf("SAIs accrued migration stall %v", total.ByCategory[2])
	}
}

func TestCurrentCoreHintRescuesMigratedProcess(t *testing.T) {
	// Policy (ii): when the process migrates during the block, the
	// driver re-resolves the hint to the process's current core, so
	// strips still land where they will be consumed.
	run := func(currentCore bool) uint64 {
		r := newRig(t, irqsched.PolicySourceAware, 4)
		cfg := r.node.cfg
		cfg.MigrateDuringBlock = 1
		cfg.CurrentCoreHint = currentCore
		r.node.cfg = cfg
		p := r.node.NewProc(3)
		r.eng.At(0, func(units.Time) { p.Read(1, 0, units.MiB, nil) })
		r.eng.RunUntilIdle()
		return r.node.Caches().Aggregate().RemoteTransfers
	}
	policy1 := run(false)
	policy2 := run(true)
	if policy2 != 0 {
		t.Errorf("policy (ii) still migrated %d lines", policy2)
	}
	if policy1 == 0 {
		t.Error("policy (i) with forced migration should migrate lines")
	}
}

func TestWriteCompletes(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 4)
	p := r.node.NewProc(2)
	var doneAt units.Time
	r.eng.At(0, func(units.Time) {
		p.Write(1, 0, units.MiB, func(now units.Time) { doneAt = now })
	})
	r.eng.RunUntilIdle()
	if doneAt == 0 {
		t.Fatal("write never completed")
	}
	st := r.node.Stats()
	if st.BytesWritten != units.MiB || st.WriteTransfers != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Every strip reached a server and was flushed to its disk.
	var written units.Bytes
	var flushed uint64
	for _, s := range r.servers {
		written += s.Stats().BytesWritten
		flushed += s.Disk().Stats().Writes
	}
	if written != units.MiB {
		t.Errorf("servers absorbed %v, want 1MiB", written)
	}
	if flushed == 0 {
		t.Error("no asynchronous platter flushes")
	}
}

func TestWritesCauseNoDataMigration(t *testing.T) {
	// The paper's §I claim: the write path has no interrupt-locality
	// issue. Acks are tiny; no strip data lands in any client cache.
	for _, pol := range []irqsched.PolicyKind{irqsched.PolicyIrqbalance, irqsched.PolicySourceAware} {
		r := newRig(t, pol, 4)
		p := r.node.NewProc(3)
		r.eng.At(0, func(units.Time) { p.Write(1, 0, units.MiB, nil) })
		r.eng.RunUntilIdle()
		agg := r.node.Caches().Aggregate()
		if agg.RemoteTransfers != 0 {
			t.Errorf("%v: writes migrated %d lines", pol, agg.RemoteTransfers)
		}
	}
}

func TestMixedReadWrite(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 4)
	p := r.node.NewProc(1)
	var phase int
	r.eng.At(0, func(units.Time) {
		p.Write(1, 0, 512*units.KiB, func(units.Time) {
			phase = 1
			p.Read(1, 0, 512*units.KiB, func(units.Time) { phase = 2 })
		})
	})
	r.eng.RunUntilIdle()
	if phase != 2 {
		t.Fatalf("phase = %d, want write-then-read completion", phase)
	}
	st := r.node.Stats()
	if st.BytesRead != 512*units.KiB || st.BytesWritten != 512*units.KiB {
		t.Errorf("stats = %+v", st)
	}
}

func TestIRQAffinityMaskRestrictsDelivery(t *testing.T) {
	// Pin the NIC vector to cores 0-1 (the smp_affinity mask); under
	// round-robin all softirq work must land there, and under SAIs a
	// hint pointing outside the mask is misrouted.
	r := newRig(t, irqsched.PolicyRoundRobin, 4)
	cfg := DefaultConfig(2, 3*units.Gigabit, irqsched.PolicyRoundRobin)
	cfg.MDS = 50
	node := mustNew(t, r.eng, r.fab, cfg)
	node.ioapic.Program(DataVector, []int{0, 1})
	p := node.NewProc(3)
	r.eng.At(0, func(units.Time) { p.Read(1, 0, units.MiB, nil) })
	r.eng.RunUntilIdle()
	for core := 2; core < 8; core++ {
		if got := node.CPU().Core(core).Stats().ByCategory[1]; got != 0 {
			t.Errorf("core %d did softirq work outside the affinity mask", core)
		}
	}
	if node.CPU().Core(0).Stats().ByCategory[1] == 0 && node.CPU().Core(1).Stats().ByCategory[1] == 0 {
		t.Error("no softirq work on the masked cores")
	}
}

func TestIRQAffinityMaskDefeatsSAIsHints(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 4)
	cfg := DefaultConfig(2, 3*units.Gigabit, irqsched.PolicySourceAware)
	cfg.MDS = 50
	node := mustNew(t, r.eng, r.fab, cfg)
	node.ioapic.Program(DataVector, []int{0})
	p := node.NewProc(3) // hint points at core 3, outside the mask
	r.eng.At(0, func(units.Time) { p.Read(1, 0, units.MiB, nil) })
	r.eng.RunUntilIdle()
	// The hint (core 3) is outside the mask, so the source-aware router
	// falls back within the allowed set: every strip lands on core 0
	// and must migrate to the consumer — SAIs is defeated by the mask.
	if node.Stats().HintedIRQs != 0 {
		t.Errorf("%d hints honored despite the mask", node.Stats().HintedIRQs)
	}
	if node.Caches().Aggregate().RemoteTransfers == 0 {
		t.Error("masked SAIs should migrate strips like a dedicated-core policy")
	}
}

func TestRetryRecoversLostStrips(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 4)
	cfg := r.node.cfg
	cfg.RetryTimeout = 50 * units.Millisecond
	cfg.MaxRetries = 5
	r.node.cfg = cfg
	p := r.node.NewProc(1)
	var doneAt units.Time
	r.eng.At(0, func(units.Time) {
		// Warm-up read resolves the layout before loss is injected.
		p.Read(1, 0, 64*units.KiB, func(units.Time) {
			dropped := 0
			r.fab.SetLoss(func(netsim.FrameKey) bool {
				if dropped < 3 {
					dropped++
					return true
				}
				return false
			})
			p.Read(1, 0, units.MiB, func(now units.Time) { doneAt = now })
		})
	})
	r.eng.RunUntilIdle()
	if doneAt == 0 {
		t.Fatal("read never completed despite retries")
	}
	st := r.node.Stats()
	if st.Retries == 0 {
		t.Error("no retries recorded")
	}
	if want := units.MiB + 64*units.KiB; st.BytesRead != want { // incl. warm-up
		t.Errorf("bytes = %v, want %v", st.BytesRead, want)
	}
	if st.FailedTransfers != 0 {
		t.Errorf("failed = %d", st.FailedTransfers)
	}
}

func TestRetryGivesUpAfterMaxRetries(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 2)
	cfg := r.node.cfg
	cfg.RetryTimeout = 20 * units.Millisecond
	cfg.MaxRetries = 2
	r.node.cfg = cfg
	p := r.node.NewProc(0)
	completed := false
	r.eng.At(0, func(units.Time) {
		// Warm-up read resolves the layout; then total blackout.
		p.Read(1, 0, 64*units.KiB, func(units.Time) {
			r.fab.SetLoss(func(netsim.FrameKey) bool { return true })
			p.Read(1, 0, 128*units.KiB, func(units.Time) { completed = true })
		})
	})
	r.eng.RunUntilIdle()
	if completed {
		t.Error("read completed under total loss")
	}
	st := r.node.Stats()
	if st.FailedTransfers != 1 {
		t.Errorf("failed transfers = %d, want 1", st.FailedTransfers)
	}
	if st.Retries != 2 {
		t.Errorf("retries = %d, want 2", st.Retries)
	}
}

func TestWriteRetryRecovers(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 2)
	cfg := r.node.cfg
	cfg.RetryTimeout = 50 * units.Millisecond
	cfg.MaxRetries = 5
	r.node.cfg = cfg
	p := r.node.NewProc(0)
	done := false
	r.eng.At(0, func(units.Time) {
		p.Read(1, 0, 64*units.KiB, func(units.Time) { // warm the layout
			dropped := 0
			r.fab.SetLoss(func(netsim.FrameKey) bool {
				if dropped < 2 {
					dropped++
					return true
				}
				return false
			})
			p.Write(1, 0, 256*units.KiB, func(units.Time) { done = true })
		})
	})
	r.eng.RunUntilIdle()
	if !done {
		t.Fatal("write never completed despite retries")
	}
	if r.node.Stats().BytesWritten != 256*units.KiB {
		t.Errorf("bytes written = %v", r.node.Stats().BytesWritten)
	}
}

func TestMissingPlans(t *testing.T) {
	plans := []pfs.ServerPlan{
		{ServerIdx: 0, Server: 100, Pieces: []pfs.Piece{
			{GlobalStrip: 0, Size: 64 * units.KiB},
			{GlobalStrip: 2, Size: 64 * units.KiB},
		}},
		{ServerIdx: 1, Server: 101, Pieces: []pfs.Piece{
			{GlobalStrip: 1, Size: 64 * units.KiB},
		}},
	}
	var got stripSet
	got.reset(stripRange(plans))
	got.has[0], got.has[1] = true, true
	missing := missingPlans(plans, &got)
	if len(missing) != 1 || missing[0].ServerIdx != 0 {
		t.Fatalf("missing = %+v", missing)
	}
	if len(missing[0].Pieces) != 1 || missing[0].Pieces[0].GlobalStrip != 2 {
		t.Errorf("pieces = %+v", missing[0].Pieces)
	}
	// Nothing missing -> no plans.
	got.has[2] = true
	if m := missingPlans(plans, &got); len(m) != 0 {
		t.Errorf("complete transfer still has %d plans", len(m))
	}
}

func TestAccessors(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 2)
	if r.node.NIC() == nil {
		t.Error("nil accessors")
	}
	if r.node.Config().Cores != 8 {
		t.Errorf("config cores = %d", r.node.Config().Cores)
	}
	p := r.node.NewProc(2)
	r.eng.At(0, func(units.Time) { p.Read(1, 0, 128*units.KiB, nil) })
	r.eng.RunUntilIdle()
	if len(r.node.Latencies()) != 1 {
		t.Errorf("latencies = %d", len(r.node.Latencies()))
	}
}

func TestHardwareRSSPinsFlowsToCores(t *testing.T) {
	r := newRig(t, irqsched.PolicyIrqbalance, 4)
	cfg := DefaultConfig(2, 3*units.Gigabit, irqsched.PolicyHardwareRSS)
	cfg.MDS = 50
	node := mustNew(t, r.eng, r.fab, cfg)
	p := node.NewProc(5)
	r.eng.At(0, func(units.Time) { p.Read(1, 0, units.MiB, nil) })
	r.eng.RunUntilIdle()
	if node.Stats().BytesRead != units.MiB {
		t.Fatalf("bytes = %v", node.Stats().BytesRead)
	}
	// RSS pins each flow (four servers and the MDS) to one core chosen
	// by flow hash, not by the consumer: at most five cores take
	// softirq work, and strips landing off core 5 migrate or are
	// refetched — static affinity is not request affinity.
	if n := softirqCores(node); n == 0 || n > len(r.servers)+1 {
		t.Errorf("softirq on %d cores, want 1..%d", n, len(r.servers)+1)
	}
	agg := node.Caches().Aggregate()
	if agg.RemoteTransfers == 0 && agg.MemoryFills == 0 {
		t.Error("no migration traffic under hardware RSS")
	}
}

func TestHardwareRSSFlowStability(t *testing.T) {
	// Each server's strips must always land on the same core — the RSS
	// invariant. Run two transfers of the same file: the second may only
	// use cores the first already used.
	r := newRig(t, irqsched.PolicyIrqbalance, 4)
	cfg := DefaultConfig(2, 3*units.Gigabit, irqsched.PolicyHardwareRSS)
	cfg.MDS = 50
	node := mustNew(t, r.eng, r.fab, cfg)
	p := node.NewProc(7)
	var first []units.Time
	r.eng.At(0, func(units.Time) {
		p.Read(1, 0, 512*units.KiB, func(units.Time) {
			for core := 0; core < cfg.Cores; core++ {
				first = append(first, node.CPU().Core(core).Stats().ByCategory[1])
			}
			p.Read(1, 512*units.KiB, 512*units.KiB, nil)
		})
	})
	r.eng.RunUntilIdle()
	if len(first) != cfg.Cores {
		t.Fatal("first transfer did not complete")
	}
	for core, before := range first {
		if before == 0 && node.CPU().Core(core).Stats().ByCategory[1] > 0 {
			t.Errorf("second transfer moved softirq work to new core %d", core)
		}
	}
	if n := softirqCores(node); n == 0 || n > len(r.servers)+1 {
		t.Errorf("softirq on %d cores, want 1..%d", n, len(r.servers)+1)
	}
}

// softirqCores counts the node's cores that did any softirq work.
func softirqCores(n *Node) int {
	active := 0
	for core := 0; core < n.Config().Cores; core++ {
		if n.CPU().Core(core).Stats().ByCategory[1] > 0 {
			active++
		}
	}
	return active
}

func TestAbandonedReadReleasesBlocks(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 4)
	cfg := r.node.cfg
	cfg.RetryTimeout = 20 * units.Millisecond
	cfg.MaxRetries = 1
	r.node.cfg = cfg
	p := r.node.NewProc(0)
	r.eng.At(0, func(units.Time) {
		// Warm the layout, then drop a strict subset of frames so some
		// strips land (and occupy cache) before the transfer fails.
		p.Read(1, 0, 64*units.KiB, func(units.Time) {
			n := 0
			r.fab.SetLoss(func(netsim.FrameKey) bool {
				n++
				return n%2 == 0 // half the strips vanish forever
			})
			p.Read(1, 0, units.MiB, nil)
		})
	})
	r.eng.RunUntilIdle()
	if r.node.Stats().FailedTransfers == 0 {
		t.Fatal("transfer did not fail")
	}
	// Every block of the failed transfer must have been released: the
	// consuming caches hold nothing.
	var used units.Bytes
	for core := 0; core < 8; core++ {
		used += r.node.Caches().Used(core)
	}
	if used != 0 {
		t.Errorf("abandoned transfer left %v resident in caches", used)
	}
}

func TestCorruptedHeadersDroppedAndRecovered(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 4)
	cfg := r.node.cfg
	cfg.RetryTimeout = 50 * units.Millisecond
	cfg.MaxRetries = 5
	r.node.cfg = cfg
	p := r.node.NewProc(1)
	var done bool
	r.eng.At(0, func(units.Time) {
		p.Read(1, 0, 64*units.KiB, func(units.Time) { // warm layout
			n := 0
			r.fab.SetCorruption(func(f *netsim.Frame, _ netsim.FrameKey) bool {
				if f.Payload < 32*units.KiB {
					return false // target data strips only
				}
				n++
				return n <= 2 // damage the first two data frames
			})
			p.Read(1, 0, units.MiB, func(units.Time) { done = true })
		})
	})
	r.eng.RunUntilIdle()
	if !done {
		t.Fatal("read never completed despite retries")
	}
	st := r.node.Stats()
	if st.HeaderDrops == 0 {
		t.Error("no header drops counted")
	}
	if st.Retries == 0 {
		t.Error("corruption did not trigger a retry")
	}
	if r.fab.Corrupted() == 0 {
		t.Error("fabric counted no corrupted frames")
	}
	if want := units.MiB + 64*units.KiB; st.BytesRead != want {
		t.Errorf("bytes = %v, want %v", st.BytesRead, want)
	}
}

func TestRingDropRecovery(t *testing.T) {
	// A two-descriptor rx ring behind a coalescing window: strips from
	// four servers overrun the ring while the interrupt is held back, so
	// frames are lost at the NIC rather than on the wire — and the retry
	// machinery must absorb that loss exactly like fabric loss.
	eng := sim.NewEngine()
	fab := netsim.NewFabric(eng, 20*units.Microsecond, 256)
	cfg := DefaultConfig(1, 3*units.Gigabit, irqsched.PolicySourceAware)
	cfg.MDS = 50
	cfg.NIC.RingSize = 2
	cfg.NIC.CoalesceFrames = 8
	cfg.NIC.CoalesceDelay = 500 * units.Microsecond
	cfg.RetryTimeout = 50 * units.Millisecond
	cfg.MaxRetries = 10
	node := mustNew(t, eng, fab, cfg)

	servers := make([]netsim.NodeID, 4)
	rnd := rng.New(7)
	for i := range servers {
		id := netsim.NodeID(100 + i)
		servers[i] = id
		scfg := pfs.DefaultServerConfig(units.Gigabit)
		scfg.Disk.RotationPeriod = 0
		scfg.Disk.MediaRate = units.Rate(400 * units.MBps)
		pfs.NewServer(eng, fab, id, scfg, rnd)
	}
	layout := pfs.Layout{StripSize: 64 * units.KiB, Servers: servers}
	pfs.NewMetadataServer(eng, fab, 50, pfs.DefaultMetadataConfig(units.Gigabit),
		func(pfs.FileID) pfs.Layout { return layout })

	p := node.NewProc(1)
	var doneAt units.Time
	eng.At(0, func(units.Time) {
		p.Read(1, 0, units.MiB, func(now units.Time) { doneAt = now })
	})
	eng.RunUntilIdle()
	if node.NIC().Stats().RingDrops == 0 {
		t.Fatal("rx ring never overflowed; the scenario exercises nothing")
	}
	if doneAt == 0 {
		t.Fatal("read never completed despite retries over ring drops")
	}
	st := node.Stats()
	if st.BytesRead != units.MiB {
		t.Errorf("bytes = %v, want 1MiB", st.BytesRead)
	}
	if st.Retries == 0 || st.StripsRetried == 0 {
		t.Errorf("ring drops recovered without retries: retries=%d strips=%d",
			st.Retries, st.StripsRetried)
	}
	if st.FailedTransfers != 0 {
		t.Errorf("failed transfers = %d", st.FailedTransfers)
	}
}

func TestAbandonRecordsOpErrorAndLatency(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 2)
	cfg := r.node.cfg
	cfg.RetryTimeout = 20 * units.Millisecond
	cfg.MaxRetries = 2
	r.node.cfg = cfg
	p := r.node.NewProc(0)
	var issuedAt units.Time
	r.eng.At(0, func(units.Time) {
		p.Read(1, 0, 64*units.KiB, func(now units.Time) { // warm the layout
			issuedAt = now
			r.fab.SetLoss(func(netsim.FrameKey) bool { return true })
			p.Read(1, 0, 128*units.KiB, nil)
		})
	})
	lats := len(r.node.Latencies())
	r.eng.RunUntilIdle()
	errs := r.node.OpErrors()
	if len(errs) != 1 {
		t.Fatalf("op errors = %d, want 1", len(errs))
	}
	e := errs[0]
	if e.Write || e.File != 1 || e.Retries != 2 {
		t.Errorf("op error = %+v", e)
	}
	if e.IssuedAt < issuedAt {
		t.Errorf("issued at %v, before the op was even requested at %v", e.IssuedAt, issuedAt)
	}
	if e.FailedAt <= e.IssuedAt {
		t.Errorf("failed at %v not after issue at %v", e.FailedAt, e.IssuedAt)
	}
	// The abandoned read's time-to-failure lands in the latency books
	// (the silent-data-loss fix): one warm-up latency plus the failure.
	got := r.node.Latencies()
	if len(got) != lats+2 {
		t.Fatalf("latencies = %d, want %d (warm-up + failure)", len(got), lats+2)
	}
	if want := float64(e.FailedAt - e.IssuedAt); got[len(got)-1] != want {
		t.Errorf("failure latency = %v, want %v", got[len(got)-1], want)
	}
}

func TestOpenRetryRecoversLostLayout(t *testing.T) {
	// Drop the first metadata exchange entirely: without open retries the
	// transfer would park forever with zero failures — the silent-loss
	// bug. The client must re-request the layout and complete.
	r := newRig(t, irqsched.PolicySourceAware, 2)
	cfg := r.node.cfg
	cfg.RetryTimeout = 20 * units.Millisecond
	cfg.MaxRetries = 5
	r.node.cfg = cfg
	dropped := 0
	r.fab.SetLoss(func(netsim.FrameKey) bool {
		if dropped < 1 { // the very first frame is the LayoutRequest
			dropped++
			return true
		}
		return false
	})
	p := r.node.NewProc(1)
	var doneAt units.Time
	r.eng.At(0, func(units.Time) {
		p.Read(1, 0, 128*units.KiB, func(now units.Time) { doneAt = now })
	})
	r.eng.RunUntilIdle()
	if doneAt == 0 {
		t.Fatal("read never completed after a lost layout request")
	}
	st := r.node.Stats()
	if st.MetadataTrips < 2 {
		t.Errorf("metadata trips = %d, want the retry to re-request the layout", st.MetadataTrips)
	}
	if st.Retries == 0 {
		t.Error("no retry recorded for the lost open")
	}
	if st.BytesRead != 128*units.KiB {
		t.Errorf("bytes = %v", st.BytesRead)
	}
}

func TestOpenRetryExhaustionFailsParkedOps(t *testing.T) {
	// Total blackout from t=0: the open can never resolve. Every parked
	// operation must fail loudly — typed OpError, failure counted, and
	// the elapsed time in the latency distribution. The second read
	// parks after the open started; each error keeps its own identity.
	r := newRig(t, irqsched.PolicySourceAware, 2)
	cfg := r.node.cfg
	cfg.RetryTimeout = 20 * units.Millisecond
	cfg.MaxRetries = 2
	r.node.cfg = cfg
	r.fab.SetLoss(func(netsim.FrameKey) bool { return true })
	p := r.node.NewProc(0)
	completed := false
	const second = 5 * units.Millisecond
	r.eng.At(0, func(units.Time) {
		p.Read(1, 0, 64*units.KiB, func(units.Time) { completed = true })
	})
	r.eng.At(second, func(units.Time) {
		p.Read(1, 64*units.KiB, 64*units.KiB, func(units.Time) { completed = true })
	})
	r.eng.RunUntilIdle()
	if completed {
		t.Fatal("read completed under total loss")
	}
	st := r.node.Stats()
	if st.FailedTransfers != 2 {
		t.Errorf("failed transfers = %d, want both parked ops", st.FailedTransfers)
	}
	if got := len(r.node.OpErrors()); got != 2 {
		t.Fatalf("op errors = %d, want 2", got)
	}
	errs := r.node.OpErrors()
	for _, e := range errs {
		if e.Retries != 2 || e.FailedAt <= e.IssuedAt {
			t.Errorf("op error = %+v", e)
		}
	}
	if errs[0].Tag == errs[1].Tag {
		t.Errorf("both parked ops report tag %d; (Client, Tag) must identify one op", errs[0].Tag)
	}
	if errs[0].IssuedAt >= second || errs[1].IssuedAt < second {
		t.Errorf("issue times %v and %v, want each op's own (the second parked at %v or later)",
			errs[0].IssuedAt, errs[1].IssuedAt, second)
	}
	if got := len(r.node.Latencies()); got != 2 {
		t.Errorf("latencies = %d, want the two failures' time-to-failure", got)
	}
	// The engine drained with the file half-open; nothing may leak into
	// a later successful open.
	if len(r.node.opening) != 0 || len(r.node.opens) != 0 {
		t.Errorf("open state leaked: opening=%d opens=%d", len(r.node.opening), len(r.node.opens))
	}
}

// TestRetryDelaySchedule pins the backoff schedule as a pure function
// of (Seed, tag, attempt): attempt 0 waits exactly RetryTimeout, later
// attempts grow exponentially to the cap, and the whole schedule is
// reproducible call over call.
func TestRetryDelaySchedule(t *testing.T) {
	base := 10 * units.Millisecond
	cfg := Config{RetryTimeout: base, RetryJitter: -1, Seed: 42}
	if got := cfg.RetryDelay(7, 0); got != base {
		t.Errorf("attempt 0 delay = %v, want RetryTimeout %v", got, base)
	}
	want := []units.Time{base, 2 * base, 4 * base, 8 * base, 8 * base, 8 * base}
	for attempt, w := range want {
		if got := cfg.RetryDelay(7, attempt); got != w {
			t.Errorf("attempt %d delay = %v, want %v (default cap 8×)", attempt, got, w)
		}
	}
	// Factor 1 restores the legacy fixed interval.
	cfg.RetryBackoff = 1
	for attempt := 0; attempt < 4; attempt++ {
		if got := cfg.RetryDelay(7, attempt); got != base {
			t.Errorf("fixed-interval attempt %d = %v, want %v", attempt, got, base)
		}
	}
	// Disabled retries never delay.
	if got := (Config{}).RetryDelay(7, 3); got != 0 {
		t.Errorf("RetryDelay without RetryTimeout = %v, want 0", got)
	}
}

// TestRetryDelayJitterDesynchronizes checks the derived jitter: each
// delay is deterministic per (seed, tag, attempt), bounded by the
// jitter fraction, and differs across seeds and tags — so clients that
// lost frames in the same burst do not re-issue in lockstep.
func TestRetryDelayJitterDesynchronizes(t *testing.T) {
	base := 10 * units.Millisecond
	cfg := Config{RetryTimeout: base, Seed: 1} // default jitter 0.1
	for attempt := 1; attempt <= 4; attempt++ {
		d1 := cfg.RetryDelay(5, attempt)
		if d2 := cfg.RetryDelay(5, attempt); d2 != d1 {
			t.Fatalf("attempt %d not deterministic: %v then %v", attempt, d1, d2)
		}
		bare := Config{RetryTimeout: base, RetryJitter: -1, Seed: 1}.RetryDelay(5, attempt)
		if d1 > bare || float64(d1) < 0.9*float64(bare) {
			t.Errorf("attempt %d jittered delay %v outside (0.9×%v, %v]", attempt, d1, bare, bare)
		}
	}
	other := cfg
	other.Seed = 2
	if cfg.RetryDelay(5, 2) == other.RetryDelay(5, 2) {
		t.Error("two seeds produced the same jittered delay — clients would retry in sync")
	}
	if cfg.RetryDelay(5, 2) == cfg.RetryDelay(6, 2) {
		t.Error("two tags produced the same jittered delay")
	}
}

// TestBackoffConfigValidation covers the new knobs' error paths.
func TestBackoffConfigValidation(t *testing.T) {
	base := DefaultConfig(1, units.Gigabit, irqsched.PolicySourceAware)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"backoff below one", func(c *Config) { c.RetryBackoff = 0.5 }},
		{"negative timeout", func(c *Config) { c.RetryTimeout = -1 }},
		{"negative max retries", func(c *Config) { c.MaxRetries = -1 }},
		{"jitter of one", func(c *Config) { c.RetryJitter = 1 }},
		{"negative deadline", func(c *Config) { c.TransferDeadline = -1 }},
		{"deadline without retries", func(c *Config) { c.TransferDeadline = units.Second }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

// TestTransferDeadlinePartialRead is the graceful-degradation contract:
// with one of two servers permanently down, a deadline-bound read
// completes at its deadline with the strips that arrived — the process
// wakes, consumes the partial payload, and a typed Partial record (not
// an abandonment) documents the gap.
func TestTransferDeadlinePartialRead(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 2)
	cfg := r.node.cfg
	cfg.RetryTimeout = 10 * units.Millisecond
	cfg.MaxRetries = 100
	cfg.TransferDeadline = 200 * units.Millisecond
	r.node.cfg = cfg
	p := r.node.NewProc(1)
	var doneAt units.Time
	r.eng.At(0, func(units.Time) {
		p.Read(1, 0, 64*units.KiB, func(units.Time) { // warm the layout
			r.servers[1].SetDown(true)
			p.Read(1, 0, 256*units.KiB, func(now units.Time) { doneAt = now })
		})
	})
	r.eng.RunUntilIdle()
	if doneAt == 0 {
		t.Fatal("deadline-bound read never completed")
	}
	st := r.node.Stats()
	if st.PartialTransfers != 1 || st.PartialBytes != 128*units.KiB {
		t.Errorf("partial = %d transfers / %v bytes, want 1 / 128KiB", st.PartialTransfers, st.PartialBytes)
	}
	if st.FailedTransfers != 0 {
		t.Errorf("failed = %d, want 0 (partial is not abandonment)", st.FailedTransfers)
	}
	if st.Transfers != 1 { // the warm-up only
		t.Errorf("complete transfers = %d, want 1", st.Transfers)
	}
	if want := 64*units.KiB + 128*units.KiB; st.BytesRead != want {
		t.Errorf("bytes read = %v, want %v (partial bytes reach the application)", st.BytesRead, want)
	}
	errs := r.node.OpErrors()
	if len(errs) != 1 {
		t.Fatalf("op errors = %d, want 1", len(errs))
	}
	e := errs[0]
	if !e.Partial || e.Write || e.BytesDelivered != 128*units.KiB || e.StripsMissing != 2 {
		t.Errorf("op error = %+v", e)
	}
	if e.Client != 1 {
		t.Errorf("op error client = %d, want 1", e.Client)
	}
	if e.FailedAt-e.IssuedAt < cfg.TransferDeadline {
		t.Errorf("partial resolved at %v after issue, before the %v deadline", e.FailedAt-e.IssuedAt, cfg.TransferDeadline)
	}
	if got := len(r.node.Latencies()); got != 2 {
		t.Errorf("latencies = %d, want warm-up + partial", got)
	}
}

// TestTransferDeadlinePartialWrite mirrors the read contract for the
// push path: acknowledged strips count as written, the rest are typed.
func TestTransferDeadlinePartialWrite(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 2)
	cfg := r.node.cfg
	cfg.RetryTimeout = 10 * units.Millisecond
	cfg.MaxRetries = 100
	cfg.TransferDeadline = 200 * units.Millisecond
	r.node.cfg = cfg
	p := r.node.NewProc(0)
	done := false
	r.eng.At(0, func(units.Time) {
		p.Read(1, 0, 64*units.KiB, func(units.Time) { // warm the layout
			r.servers[1].SetDown(true)
			p.Write(1, 0, 256*units.KiB, func(units.Time) { done = true })
		})
	})
	r.eng.RunUntilIdle()
	if !done {
		t.Fatal("deadline-bound write never completed")
	}
	st := r.node.Stats()
	if st.PartialTransfers != 1 || st.PartialBytes != 128*units.KiB {
		t.Errorf("partial = %d transfers / %v bytes, want 1 / 128KiB", st.PartialTransfers, st.PartialBytes)
	}
	if st.BytesWritten != 128*units.KiB {
		t.Errorf("bytes written = %v, want the acked half", st.BytesWritten)
	}
	if st.WriteTransfers != 0 || st.FailedTransfers != 0 {
		t.Errorf("write transfers = %d, failed = %d; partial is neither", st.WriteTransfers, st.FailedTransfers)
	}
	errs := r.node.OpErrors()
	if len(errs) != 1 || !errs[0].Partial || !errs[0].Write || errs[0].StripsMissing != 2 {
		t.Fatalf("op errors = %+v", errs)
	}
	if got := len(r.node.WriteLatencies()); got != 1 {
		t.Errorf("write latencies = %d, want the partial's elapsed time", got)
	}
}

// TestTransferDeadlineAbandonsEmptyRead: a deadline with nothing in
// hand is still an abandonment — there is no empty partial result, for
// a read or a write.
func TestTransferDeadlineAbandonsEmptyRead(t *testing.T) {
	for _, write := range []bool{false, true} {
		name := "read"
		if write {
			name = "write"
		}
		t.Run(name, func(t *testing.T) {
			r := newRig(t, irqsched.PolicySourceAware, 2)
			cfg := r.node.cfg
			cfg.RetryTimeout = 10 * units.Millisecond
			cfg.MaxRetries = 100
			cfg.TransferDeadline = 100 * units.Millisecond
			r.node.cfg = cfg
			p := r.node.NewProc(0)
			op := p.Read
			if write {
				op = p.Write
			}
			completed := false
			r.eng.At(0, func(units.Time) {
				p.Read(1, 0, 64*units.KiB, func(units.Time) { // warm the layout
					for _, s := range r.servers {
						s.SetDown(true)
					}
					op(1, 0, 128*units.KiB, func(units.Time) { completed = true })
				})
			})
			r.eng.RunUntilIdle()
			if completed {
				t.Errorf("%s completed with every server down", name)
			}
			st := r.node.Stats()
			if st.FailedTransfers != 1 || st.PartialTransfers != 0 {
				t.Errorf("failed = %d, partial = %d; want 1 / 0", st.FailedTransfers, st.PartialTransfers)
			}
			errs := r.node.OpErrors()
			if len(errs) != 1 || errs[0].Write != write || errs[0].Partial {
				t.Fatalf("op errors = %+v, want one abandoned %s", errs, name)
			}
			// The deadline bounds the failure: well before 100 retries' worth.
			if e := errs[0]; e.FailedAt-e.IssuedAt > 2*cfg.TransferDeadline {
				t.Errorf("abandoned %v after issue; deadline %v did not bound it", e.FailedAt-e.IssuedAt, cfg.TransferDeadline)
			}
		})
	}
}

// TestStripArrivalBookkeeping feeds strips and write acks straight into
// the softirq completions of one read and one write: out-of-order
// FlowSeqs from one server, an in-order stream from another, a
// duplicate, and strays — a strip outside the transfer, a strip from a
// server the transfer never asked, and an ack outside the write. A
// strip naming the write's tag and an ack naming the read's are
// dropped like unknown tags: reads and writes share one tag table, but
// neither kind completes the other. The reorder detector, the
// duplicate and stray counters, and completion must come out exact.
func TestStripArrivalBookkeeping(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 0)
	n := r.node
	// Servers 100 and 101 are not attached: the requests the transfers
	// send are dropped, and every strip below is hand-delivered.
	layout, err := pfs.Layout{StripSize: 64 * units.KiB, Servers: []netsim.NodeID{100, 101}}.Check()
	if err != nil {
		t.Fatal(err)
	}
	n.layouts[1] = layout
	p := n.NewProc(0)
	var readDone, writeDone bool
	n.issue(n.newOp(p, false, 1, 0, 6*64*units.KiB, func(units.Time) { readDone = true })) // strips 0..5, tag 1
	n.issue(n.newOp(p, true, 1, 0, 2*64*units.KiB, func(units.Time) { writeDone = true })) // strips 0..1, tag 2
	strip := func(src netsim.NodeID, seq uint64, s int) {
		n.stripArrived(0, src, seq, &pfs.StripData{File: 1, Tag: 1, GlobalStrip: s, Size: 64 * units.KiB}, r.eng.Now())
	}
	ack := func(tag uint64, s int) {
		n.ackArrived(&pfs.WriteAck{File: 1, Tag: tag, GlobalStrip: s, Size: 64 * units.KiB})
	}
	// Cross-kind tags: no counter moves and both ops stay live.
	n.stripArrived(0, 100, 1, &pfs.StripData{File: 1, Tag: 2, GlobalStrip: 0, Size: 64 * units.KiB}, r.eng.Now())
	ack(1, 0)
	if st := n.Stats(); st.StrayStrips != 0 || st.DuplicateStrips != 0 || st.ReorderedFrames != 0 {
		t.Errorf("cross-kind tags moved counters: strays %d, duplicates %d, reordered %d",
			st.StrayStrips, st.DuplicateStrips, st.ReorderedFrames)
	}
	for tag := uint64(1); tag <= 2; tag++ {
		if o := n.ops[tag]; o == nil || o.remaining != len(o.got.has) {
			t.Fatalf("op %d not live with nothing delivered after the cross-kind tags", tag)
		}
	}

	strip(100, 5, 0)
	strip(100, 3, 2) // regresses by 2
	strip(101, 10, 1)
	strip(101, 11, 3)
	strip(100, 3, 2)  // duplicate: counted once, not a reorder
	strip(100, 9, 99) // outside the transfer
	strip(102, 9, 5)  // from a server the transfer never asked
	strip(100, 1, 4)  // regresses by 4 against seq 5
	if _, live := n.ops[1]; !live {
		t.Fatal("read completed with a strip still missing")
	}
	strip(101, 12, 5)
	if _, live := n.ops[1]; live {
		t.Fatal("read still live after its last strip")
	}

	ack(2, 0)
	ack(2, 7) // outside the write
	ack(2, 0) // duplicate
	ack(2, 1)
	r.eng.RunUntilIdle()

	st := n.Stats()
	if st.ReorderedFrames != 2 || st.ReorderDepthMax != 4 {
		t.Errorf("reordered %d, depth max %d; want 2 and 4", st.ReorderedFrames, st.ReorderDepthMax)
	}
	if st.DuplicateStrips != 2 || st.StrayStrips != 3 {
		t.Errorf("duplicates %d, strays %d; want 2 and 3", st.DuplicateStrips, st.StrayStrips)
	}
	if !readDone || st.Transfers != 1 || st.BytesRead != 6*64*units.KiB {
		t.Errorf("read done %v, transfers %d, bytes %v; want one read of 384 KiB", readDone, st.Transfers, st.BytesRead)
	}
	if !writeDone || st.WriteTransfers != 1 || st.BytesWritten != 2*64*units.KiB {
		t.Errorf("write done %v, transfers %d, bytes %v; want one write of 128 KiB", writeDone, st.WriteTransfers, st.BytesWritten)
	}
}

// TestBackgroundCoreFollowsQueues: background flows take the
// foreground's path to a core. Under hardware RSS the NIC hashes each
// flow onto its own receive queue, so 64 flows reach all four cores
// (routing queue 0's vector alone put all 64 on core 0). Under a
// single-queue policy BackgroundCore is the policy's routing of
// DataVector, decision for decision.
func TestBackgroundCoreFollowsQueues(t *testing.T) {
	flows := make([]uint64, 64)
	for k := range flows {
		flows[k] = rng.Derive(7, uint64(k))
	}
	node := func(policy irqsched.PolicyKind) *Node {
		eng := sim.NewEngine()
		cfg := DefaultConfig(1, 3*units.Gigabit, policy)
		cfg.MDS = 50
		cfg.Cores = 4
		return mustNew(t, eng, netsim.NewFabric(eng, 20*units.Microsecond, 256), cfg)
	}

	rss := node(irqsched.PolicyHardwareRSS)
	perCore := make([]int, 4)
	for _, f := range flows {
		perCore[rss.BackgroundCore(f)]++
	}
	for c, n := range perCore {
		if n == 0 {
			t.Errorf("rss: no background flow on core %d (flows per core %v)", c, perCore)
		}
	}

	for _, name := range irqsched.Names() {
		p, err := irqsched.ParsePolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := irqsched.Describe(p); d.MSIX {
			continue
		}
		got, want := node(p), node(p)
		for _, f := range flows {
			if g, w := got.BackgroundCore(f), want.ioapic.RouteFor(DataVector, apic.NoHint, f); g != w {
				t.Fatalf("%s: flow %#x: BackgroundCore %d, RouteFor(DataVector) %d", name, f, g, w)
			}
		}
	}
}
