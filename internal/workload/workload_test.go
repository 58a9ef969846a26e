package workload

import (
	"testing"

	"sais/internal/client"
	"sais/internal/cpu"
	"sais/internal/irqsched"
	"sais/internal/netsim"
	"sais/internal/pfs"
	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/units"
)

// rig builds a client + 4 fast servers + MDS.
func rig(t *testing.T) (*sim.Engine, *client.Node) {
	t.Helper()
	eng := sim.NewEngine()
	fab := netsim.NewFabric(eng, 10*units.Microsecond, 256)
	ccfg := client.DefaultConfig(1, 3*units.Gigabit, irqsched.PolicySourceAware)
	ccfg.MDS = 50
	node, err := client.New(eng, fab, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]netsim.NodeID, 4)
	rnd := rng.New(3)
	for i := range servers {
		servers[i] = netsim.NodeID(100 + i)
		scfg := pfs.DefaultServerConfig(units.Gigabit)
		scfg.Disk.RotationPeriod = 0
		pfs.NewServer(eng, fab, servers[i], scfg, rnd)
	}
	layout := pfs.Layout{StripSize: 64 * units.KiB, Servers: servers}
	pfs.NewMetadataServer(eng, fab, 50, pfs.DefaultMetadataConfig(units.Gigabit),
		func(pfs.FileID) pfs.Layout { return layout })
	return eng, node
}

func TestValidate(t *testing.T) {
	good := IORConfig{Procs: 2, TransferSize: units.MiB, BytesPerProc: 4 * units.MiB}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	bad := []IORConfig{
		{Procs: 0, TransferSize: units.MiB, BytesPerProc: units.MiB},
		{Procs: 1, TransferSize: 0, BytesPerProc: units.MiB},
		{Procs: 1, TransferSize: 2 * units.MiB, BytesPerProc: units.MiB},
		{Procs: 1, TransferSize: units.MiB, BytesPerProc: units.MiB, Stagger: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestTransfers(t *testing.T) {
	c := IORConfig{Procs: 1, TransferSize: units.MiB, BytesPerProc: 10*units.MiB + 1}
	if got := c.Transfers(); got != 10 {
		t.Errorf("Transfers = %d, want 10 (floor)", got)
	}
}

func TestIORRunsToCompletion(t *testing.T) {
	eng, node := rig(t)
	cfg := IORConfig{
		Procs:        3,
		TransferSize: 512 * units.KiB,
		BytesPerProc: 2 * units.MiB,
		FirstFile:    1,
		Stagger:      10 * units.Microsecond,
	}
	var doneAt units.Time
	w, err := NewIOR(node, cfg, func(now units.Time) { doneAt = now })
	if err != nil {
		t.Fatal(err)
	}
	w.Start(eng)
	eng.RunUntilIdle()
	if doneAt == 0 {
		t.Fatal("workload never finished")
	}
	if w.Finished() != doneAt {
		t.Errorf("Finished() = %v, callback at %v", w.Finished(), doneAt)
	}
	if got := node.Stats().BytesRead; got != 6*units.MiB {
		t.Errorf("bytes read = %v, want 6MiB", got)
	}
	if got := node.Stats().Transfers; got != 12 {
		t.Errorf("transfers = %d, want 12", got)
	}
	if w.TotalBytes() != 6*units.MiB {
		t.Errorf("TotalBytes = %v", w.TotalBytes())
	}
}

func TestProcsUseDistinctFilesAndCores(t *testing.T) {
	eng, node := rig(t)
	cfg := IORConfig{
		Procs:        2,
		TransferSize: units.MiB,
		BytesPerProc: units.MiB,
		FirstFile:    7,
	}
	w, err := NewIOR(node, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(eng)
	eng.RunUntilIdle()
	// Two files -> two metadata round trips.
	if got := node.Stats().MetadataTrips; got != 2 {
		t.Errorf("metadata trips = %d, want 2", got)
	}
	// Both procs consumed on their own cores: cores 0 and 1 ran compute,
	// others none.
	for core := 0; core < 8; core++ {
		acc := node.CPU().Core(core).Stats().ByCategory[cpu.CatCompute]
		if core < 2 && acc == 0 {
			t.Errorf("core %d has no compute", core)
		}
		if core >= 2 && acc != 0 {
			t.Errorf("core %d unexpectedly consumed data", core)
		}
	}
}

func TestNewIORRejectsBadConfig(t *testing.T) {
	_, node := rig(t)
	if _, err := NewIOR(node, IORConfig{}, nil); err == nil {
		t.Error("zero config accepted")
	}
}

func TestStaggerDelaysStart(t *testing.T) {
	eng, node := rig(t)
	cfg := IORConfig{
		Procs:        2,
		TransferSize: units.MiB,
		BytesPerProc: units.MiB,
		FirstFile:    1,
		Stagger:      5 * units.Millisecond,
	}
	w, _ := NewIOR(node, cfg, nil)
	w.Start(eng)
	eng.RunUntilIdle()
	// The second process starts one stagger in, so the run cannot end
	// before the stagger plus that process's one transfer.
	lats := node.Latencies()
	if len(lats) != 2 {
		t.Fatalf("transfers = %d, want 2", len(lats))
	}
	if w.Finished() < cfg.Stagger+units.Time(min(lats[0], lats[1])) {
		t.Errorf("staggered run finished at %v, before stagger %v plus a transfer", w.Finished(), cfg.Stagger)
	}
}

func TestRandomAccessCoversAllOffsets(t *testing.T) {
	// Random mode reads the same byte set as sequential mode, just in a
	// different order: totals must match.
	eng, node := rig(t)
	cfg := IORConfig{
		Procs:        2,
		TransferSize: 512 * units.KiB,
		BytesPerProc: 4 * units.MiB,
		FirstFile:    1,
		RandomAccess: true,
		Seed:         7,
	}
	w, err := NewIOR(node, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(eng)
	eng.RunUntilIdle()
	if got := node.Stats().BytesRead; got != 8*units.MiB {
		t.Errorf("random mode read %v, want 8MiB", got)
	}
}

func TestRandomAccessIsSeededDeterministic(t *testing.T) {
	run := func() units.Time {
		eng, node := rig(t)
		cfg := IORConfig{
			Procs: 1, TransferSize: 512 * units.KiB, BytesPerProc: 4 * units.MiB,
			FirstFile: 1, RandomAccess: true, Seed: 11,
		}
		w, _ := NewIOR(node, cfg, nil)
		w.Start(eng)
		return eng.RunUntilIdle()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("seeded random runs differ: %v vs %v", a, b)
	}
}
