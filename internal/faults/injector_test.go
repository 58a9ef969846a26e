package faults

import (
	"testing"

	"sais/internal/netsim"
	"sais/internal/pfs"
	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/units"
)

// rig is a minimal injectable cluster: one client NIC (node 1), a row
// of I/O servers from node 100, and node 200 free for the storm ghost.
type rig struct {
	eng    *sim.Engine
	fab    *netsim.Fabric
	client *netsim.NIC
	srvs   []*pfs.Server
	rx     []*netsim.Frame
}

func newRig(t testing.TB, servers int) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine()}
	r.fab = netsim.NewFabric(r.eng, 10*units.Microsecond, 256)
	r.client = netsim.NewNIC(r.eng, 1, netsim.DefaultNICConfig(3*units.Gigabit))
	r.fab.Attach(r.client)
	r.client.SetInterruptHandler(func(q int, _ units.Time) {
		r.rx = append(r.rx, r.client.Drain(q)...)
	})
	for i := 0; i < servers; i++ {
		scfg := pfs.DefaultServerConfig(units.Gigabit)
		scfg.Disk.RotationPeriod = 0 // deterministic service times
		r.srvs = append(r.srvs, pfs.NewServer(r.eng, r.fab, netsim.NodeID(100+i), scfg, rng.New(1)))
	}
	return r
}

func (r *rig) target(rand *rng.Source) Target {
	return Target{
		Engines:      []*sim.Engine{r.eng},
		Fabrics:      []*netsim.Fabric{r.fab},
		ServerEngine: func(int) *sim.Engine { return r.eng },
		Servers:      r.srvs,
		Clients:      []netsim.NodeID{1},
		StormNode:    200,
		Rand:         rand,
	}
}

// request asks server srv for n strips at simulated time at.
func (r *rig) request(at units.Time, srv, tag, n int) {
	pieces := make([]pfs.Piece, n)
	for i := range pieces {
		pieces[i] = pfs.Piece{GlobalStrip: i, ServerOffset: units.Bytes(i) * 64 * units.KiB, Size: 64 * units.KiB}
	}
	r.eng.At(at, func(units.Time) {
		r.client.Send(netsim.NodeID(100+srv), pfs.RequestSize, netsim.AffHint{}, &pfs.ReadRequest{
			File: 1, Tag: uint64(tag), Client: 1, Pieces: pieces,
		})
	})
}

// strips counts the data frames the client received.
func (r *rig) strips() int {
	n := 0
	for _, f := range r.rx {
		if _, ok := f.Body.(*pfs.StripData); ok {
			n++
		}
	}
	return n
}

func mustArm(t *testing.T, p *Plan, target Target) *Injector {
	t.Helper()
	inj, err := p.Arm(target)
	if err != nil {
		t.Fatalf("Arm: %v", err)
	}
	return inj
}

func TestEmptyPlanArmsWithoutDrawingRandomness(t *testing.T) {
	r := newRig(t, 1)
	root := rng.New(7)
	inj := mustArm(t, nil, r.target(root))
	inj2 := mustArm(t, &Plan{}, r.target(root))
	if got, want := root.Uint64(), rng.New(7).Uint64(); got != want {
		t.Fatalf("empty Arm perturbed the rng: %d vs %d", got, want)
	}
	for _, i := range []*Injector{inj, inj2} {
		if st := i.Finish(units.Second); st.StallsInjected != 0 || st.Crashes != 0 || st.StormFrames != 0 {
			t.Errorf("no-op injector has stats %+v", st)
		}
	}
}

func TestArmRejectsInvalidPlanAndMissingTarget(t *testing.T) {
	r := newRig(t, 1)
	if _, err := (&Plan{Loss: 2}).Arm(r.target(rng.New(1))); err == nil {
		t.Error("invalid plan armed")
	}
	if _, err := (&Plan{Loss: 0.1}).Arm(Target{Rand: rng.New(1)}); err == nil {
		t.Error("plan armed without an engine or fabric")
	}
}

func TestLossHookDropsFramesDeterministically(t *testing.T) {
	run := func() (uint64, int) {
		r := newRig(t, 1)
		mustArm(t, &Plan{Loss: 0.3}, r.target(rng.New(42)))
		for i := 0; i < 20; i++ {
			r.request(units.Time(i)*units.Millisecond, 0, i+1, 1)
		}
		r.eng.RunUntilIdle()
		return r.fab.Dropped(), r.strips()
	}
	dropped, strips := run()
	if dropped == 0 {
		t.Fatal("30% loss dropped nothing")
	}
	if strips == 0 {
		t.Fatal("every frame dropped at 30% loss")
	}
	d2, s2 := run()
	if d2 != dropped || s2 != strips {
		t.Fatalf("same (plan, seed) diverged: %d/%d vs %d/%d drops/strips", dropped, strips, d2, s2)
	}
}

func TestCorruptionHookDamagesFrames(t *testing.T) {
	r := newRig(t, 1)
	mustArm(t, &Plan{Corrupt: 0.5}, r.target(rng.New(3)))
	for i := 0; i < 10; i++ {
		r.request(units.Time(i)*units.Millisecond, 0, i+1, 2)
	}
	r.eng.RunUntilIdle()
	if r.fab.Corrupted() == 0 {
		t.Fatal("50% corruption damaged nothing")
	}
	bad := 0
	for _, f := range r.rx {
		if _, err := netsim.ReadHint(f); err != nil {
			bad++
		}
	}
	if bad == 0 {
		t.Fatal("no received frame fails header validation despite corruption")
	}
}

func TestStallHookDelaysServerAndCounts(t *testing.T) {
	base := newRig(t, 1)
	base.request(0, 0, 1, 1)
	base.eng.RunUntilIdle()
	healthy := base.eng.Now()

	r := newRig(t, 1)
	inj := mustArm(t, &Plan{Stalls: []Stall{{Server: 0, Rate: 1, Mean: 5 * units.Millisecond}}},
		r.target(rng.New(1)))
	r.request(0, 0, 1, 1)
	r.eng.RunUntilIdle()
	if got := r.eng.Now() - healthy; got < 4*units.Millisecond {
		t.Errorf("stall added only %v", got)
	}
	if r.srvs[0].Stats().Stalled != 1 {
		t.Errorf("server stalled = %d, want 1", r.srvs[0].Stats().Stalled)
	}
	st := inj.Finish(r.eng.Now())
	if st.StallsInjected != 1 || st.StallTime < 4*units.Millisecond {
		t.Errorf("injector stall stats = %+v", st)
	}
}

func TestStallJitterDrawsStayBounded(t *testing.T) {
	r := newRig(t, 1)
	mean, jitter := units.Millisecond, 200*units.Microsecond
	inj := mustArm(t, &Plan{Stalls: []Stall{{Server: -1, Rate: 1, Mean: mean, Jitter: jitter}}},
		r.target(rng.New(9)))
	for i := 0; i < 8; i++ {
		r.request(units.Time(i)*20*units.Millisecond, 0, i+1, 1)
	}
	r.eng.RunUntilIdle()
	st := inj.Finish(r.eng.Now())
	if st.StallsInjected != 8 {
		t.Fatalf("stalls = %d, want 8", st.StallsInjected)
	}
	if st.StallTime <= 0 || st.StallTime > 8*(mean+4*jitter) {
		t.Errorf("total stall time %v outside the truncated range", st.StallTime)
	}
}

func TestCrashAndReviveTimeline(t *testing.T) {
	r := newRig(t, 2)
	crashAt, reviveAt := 2*units.Millisecond, 12*units.Millisecond
	inj := mustArm(t, &Plan{Timeline: []TimelineEvent{
		{At: crashAt, Kind: KindCrash, Server: 0},
		{At: reviveAt, Kind: KindRevive, Server: 0},
	}}, r.target(rng.New(1)))
	r.request(5*units.Millisecond, 0, 1, 1)  // lands while down: dropped
	r.request(20*units.Millisecond, 0, 2, 1) // after revival: served
	r.eng.RunUntilIdle()
	if got := r.strips(); got != 1 {
		t.Errorf("client got %d strips, want only the post-revive one", got)
	}
	st := inj.Finish(r.eng.Now())
	if st.Crashes != 1 {
		t.Errorf("crashes = %d", st.Crashes)
	}
	if st.Downtime[0] != reviveAt-crashAt || st.Downtime[1] != 0 {
		t.Errorf("downtime = %v", st.Downtime)
	}
	if st.LastReviveAt != reviveAt {
		t.Errorf("last revive = %v, want %v", st.LastReviveAt, reviveAt)
	}
}

func TestCrashIsIdempotentAndFinishClosesOpenOutage(t *testing.T) {
	r := newRig(t, 1)
	inj := mustArm(t, &Plan{Timeline: []TimelineEvent{
		{At: units.Millisecond, Kind: KindCrash, Server: 0},
		{At: 2 * units.Millisecond, Kind: KindCrash, Server: 0}, // double crash: one outage
		{At: 0, Kind: KindRevive, Server: 0},                    // revive while up: ignored
	}}, r.target(rng.New(1)))
	r.eng.RunUntilIdle()
	st := inj.Finish(10 * units.Millisecond)
	if st.Crashes != 1 {
		t.Errorf("crashes = %d, want 1", st.Crashes)
	}
	if st.Downtime[0] != 9*units.Millisecond {
		t.Errorf("open outage closed to %v, want 9ms", st.Downtime[0])
	}
	if st.LastReviveAt != 0 {
		t.Errorf("revive recorded at %v for a server that never came back", st.LastReviveAt)
	}
}

func TestDegradeLinkScalesLatency(t *testing.T) {
	elapsed := func(factor float64) units.Time {
		r := newRig(t, 1)
		plan := &Plan{}
		if factor > 0 {
			plan.Timeline = []TimelineEvent{{At: 0, Kind: KindDegradeLink, Factor: factor}}
		}
		mustArm(t, plan, r.target(rng.New(1)))
		r.request(0, 0, 1, 1)
		r.eng.RunUntilIdle()
		return r.eng.Now()
	}
	healthy, degraded := elapsed(0), elapsed(10)
	// Two fabric crossings at 10 µs each, scaled 10×, add ≥ 180 µs.
	if degraded-healthy < 150*units.Microsecond {
		t.Errorf("10x degrade added only %v", degraded-healthy)
	}
	if restored := elapsed(1); restored != healthy {
		t.Errorf("factor 1 run took %v, healthy %v", restored, healthy)
	}
}

func TestStormSpraysAndStops(t *testing.T) {
	r := newRig(t, 1)
	period := 100 * units.Microsecond
	inj := mustArm(t, &Plan{Timeline: []TimelineEvent{
		{At: 0, Kind: KindStormStart, Client: -1, Period: period},
		{At: units.Millisecond, Kind: KindStormStop},
	}}, r.target(rng.New(1)))
	r.eng.RunUntilIdle() // must drain: the storm is bounded
	st := inj.Finish(r.eng.Now())
	if st.StormFrames != 10 { // ticks at 0, 100µs, ..., 900µs
		t.Errorf("storm frames = %d, want 10", st.StormFrames)
	}
	junk := 0
	for _, f := range r.rx {
		if f.Body == nil {
			junk++
		}
	}
	if junk != 10 {
		t.Errorf("client received %d junk frames, want 10", junk)
	}
}

func TestStormTargetsOneClient(t *testing.T) {
	r := newRig(t, 1)
	// A second client NIC that must stay quiet.
	other := netsim.NewNIC(r.eng, 2, netsim.DefaultNICConfig(3*units.Gigabit))
	r.fab.Attach(other)
	var otherRx int
	other.SetInterruptHandler(func(q int, _ units.Time) { otherRx += len(other.Drain(q)) })
	target := r.target(rng.New(1))
	target.Clients = []netsim.NodeID{1, 2}
	mustArm(t, &Plan{Timeline: []TimelineEvent{
		{At: 0, Kind: KindStormStart, Client: 0, Period: 100 * units.Microsecond},
		{At: 500 * units.Microsecond, Kind: KindStormStop},
	}}, target)
	r.eng.RunUntilIdle()
	if len(r.rx) == 0 {
		t.Error("targeted client received nothing")
	}
	if otherRx != 0 {
		t.Errorf("untargeted client received %d frames", otherRx)
	}
}
