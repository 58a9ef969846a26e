package faults

import (
	"fmt"

	"sais/internal/netsim"
	"sais/internal/pfs"
	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/units"
)

// Target is the built cluster an Injector arms against.
//
// Engines and Fabrics list every shard's engine and fabric,
// index-aligned, with Engines[0]/Fabrics[0] hosting the timeline clock
// and the storm ghost NIC; a single-engine run lists one of each.
// ServerEngine returns the engine server i lives on, so crash/revive
// events fire on its clock.
type Target struct {
	Engines      []*sim.Engine
	Fabrics      []*netsim.Fabric
	ServerEngine func(i int) *sim.Engine
	Servers      []*pfs.Server
	// Clients are the fabric ids of the client nodes, for storms.
	Clients []netsim.NodeID
	// StormNode is a free fabric id the injector may claim for its
	// ghost NIC when the plan contains a storm.
	StormNode netsim.NodeID
	// Rand is the run's root randomness; the injector derives labelled
	// sub-streams from it so arming order never perturbs other
	// components' draws.
	Rand *rng.Source
}

// Stats counts what the injector actually did to the run.
type Stats struct {
	// StallsInjected is the number of server requests delayed, and
	// StallTime the total delay injected.
	StallsInjected uint64
	StallTime      units.Time
	// StormFrames is the number of junk frames sprayed at clients.
	StormFrames uint64
	// Crashes counts crash events applied to an up server.
	Crashes int
	// Downtime accumulates, per server index, the time spent down.
	// Open intervals are closed by Finish.
	Downtime []units.Time
	// LastReviveAt is the time of the last revive event (0 = none).
	LastReviveAt units.Time
}

// Injector is an armed Plan. Arm installs every hook and schedules the
// timeline; Finish closes open fault intervals and returns the stats.
//
// Each run arms its own injector, and the sharded executor runs every
// shard's round on the calling goroutine, so the tallies are plain
// fields: stall hooks, crash/revive events and storm ticks never run
// concurrently, whichever shard's engine they fire on.
type Injector struct {
	eng  *sim.Engine // timeline host (shard 0)
	srvs []*pfs.Server

	stalls      uint64
	stallTime   units.Time
	stormFrames uint64

	// Per-server crash bookkeeping, indexed by server.
	down       []bool
	downSince  []units.Time
	downtime   []units.Time
	crashes    []int
	lastRevive []units.Time
}

// storm is one armed storm interval.
type storm struct {
	targets []netsim.NodeID
	period  units.Time
	payload units.Bytes
	stopAt  units.Time
}

// Arm validates p against the target shape and installs it: fabric
// loss/corruption predicates, per-server stall sources, and one engine
// event per timeline entry. It must be called before the run starts
// (events are scheduled at absolute plan times). A nil or empty plan
// arms to a no-op injector without touching the target or drawing any
// randomness, so fault-free runs stay byte-identical to an unarmed
// simulator.
func (p *Plan) Arm(t Target) (*Injector, error) {
	n := len(t.Servers)
	inj := &Injector{
		srvs:       t.Servers,
		down:       make([]bool, n),
		downSince:  make([]units.Time, n),
		downtime:   make([]units.Time, n),
		crashes:    make([]int, n),
		lastRevive: make([]units.Time, n),
	}
	if p.Empty() {
		return inj, nil
	}
	engines, fabrics := t.Engines, t.Fabrics
	if len(engines) == 0 || len(fabrics) != len(engines) || engines[0] == nil || fabrics[0] == nil || t.ServerEngine == nil {
		return nil, fmt.Errorf("faults: Arm needs an engine, a fabric and a server engine per shard")
	}
	inj.eng = engines[0]
	if err := p.Validate(len(t.Servers), len(t.Clients)); err != nil {
		return nil, err
	}

	// Loss and corruption are keyed decisions: a hash of (stream seed,
	// source node, per-source frame sequence) compared against the
	// rate. Unlike a shared sequential stream, the outcome for a given
	// frame does not depend on how many other frames were examined
	// first, so the set of dropped frames is identical across shard
	// layouts and worker counts.
	if p.Loss > 0 {
		seed := t.Rand.Split("faults/loss").Uint64()
		rate := p.Loss
		pred := func(k netsim.FrameKey) bool {
			return rng.Unit01(rng.Derive(rng.Derive(seed, uint64(k.Src)), k.Seq)) < rate
		}
		for _, fab := range fabrics {
			fab.SetLoss(pred)
		}
	}
	if p.Corrupt > 0 {
		seed := t.Rand.Split("faults/corrupt").Uint64()
		rate := p.Corrupt
		pred := func(_ *netsim.Frame, k netsim.FrameKey) bool {
			return rng.Unit01(rng.Derive(rng.Derive(seed, uint64(k.Src)), k.Seq)) < rate
		}
		for _, fab := range fabrics {
			fab.SetCorruption(pred)
		}
	}
	for _, s := range p.Stalls {
		lo, hi := s.Server, s.Server
		if s.Server == -1 {
			lo, hi = 0, len(t.Servers)-1
		}
		for srv := lo; srv <= hi; srv++ {
			inj.armStall(t.Servers[srv], s, t.Rand.Split(fmt.Sprintf("faults/stall%d", srv)))
		}
	}

	timeline := p.sortedTimeline()
	var ghost *netsim.NIC
	for _, ev := range timeline {
		if ev.Kind == KindStormStart {
			ghost = netsim.NewNIC(engines[0], t.StormNode, netsim.DefaultNICConfig(10*units.Gigabit))
			fabrics[0].Attach(ghost)
			break
		}
	}
	for i, ev := range timeline {
		switch ev.Kind {
		case KindCrash:
			srv := ev.Server
			t.ServerEngine(srv).At(ev.At, func(now units.Time) { inj.crash(srv, now) })
		case KindRevive:
			srv := ev.Server
			t.ServerEngine(srv).At(ev.At, func(now units.Time) { inj.revive(srv, now) })
		case KindDegradeLink:
			// Factors below 1 are rejected uniformly by Plan.Validate
			// above, so the sharded executor's lookahead is always safe.
			factor := ev.Factor
			// Every shard owns a fabric; each applies the new scale on
			// its own clock at the same simulated instant.
			for s := range engines {
				fab := fabrics[s]
				engines[s].At(ev.At, func(units.Time) { fab.SetLatencyScale(factor) })
			}
		case KindStormStart:
			st := &storm{period: ev.Period, payload: ev.Payload}
			if ev.Client == -1 {
				st.targets = append(st.targets, t.Clients...)
			} else {
				st.targets = []netsim.NodeID{t.Clients[ev.Client]}
			}
			// Validate guarantees a later storm-stop exists.
			for _, later := range timeline[i+1:] {
				if later.Kind == KindStormStop {
					st.stopAt = later.At
					break
				}
			}
			nic := ghost
			engines[0].At(ev.At, func(now units.Time) { inj.stormTick(nic, st, now) })
		case KindStormStop:
			// The storm's tick loop checks stopAt itself; nothing to
			// schedule.
		}
	}
	return inj, nil
}

// armStall installs one stall distribution on one server.
func (inj *Injector) armStall(srv *pfs.Server, s Stall, rnd *rng.Source) {
	srv.SetStall(func() units.Time {
		if !rnd.Bool(s.Rate) {
			return 0
		}
		d := s.Mean
		if s.Jitter > 0 {
			hi := s.Mean + 4*s.Jitter
			if hi < s.Mean { // int64 overflow on extreme plans
				hi = units.Forever
			}
			d = units.Time(rnd.TruncNormal(float64(s.Mean), float64(s.Jitter), 0, float64(hi)))
		}
		if d > 0 {
			inj.stalls++
			inj.stallTime += d
		}
		return d
	})
}

// crash takes server srv down and opens its downtime interval.
func (inj *Injector) crash(srv int, now units.Time) {
	if inj.down[srv] {
		return // idempotent: already down
	}
	inj.down[srv] = true
	inj.downSince[srv] = now
	inj.crashes[srv]++
	inj.srvs[srv].SetDown(true)
}

// revive brings server srv back and closes its downtime interval.
func (inj *Injector) revive(srv int, now units.Time) {
	if !inj.down[srv] {
		return // idempotent: not down
	}
	inj.down[srv] = false
	inj.downtime[srv] += now - inj.downSince[srv]
	inj.lastRevive[srv] = now
	inj.srvs[srv].SetDown(false)
}

// stormTick sprays one junk frame per target and re-arms until stopAt.
// The frames carry no hint and no body: the victim NIC raises an
// interrupt per frame and the client's softirq path discards them as
// stray traffic — pure overhead, exactly what an interrupt storm is.
func (inj *Injector) stormTick(nic *netsim.NIC, st *storm, now units.Time) {
	if now >= st.stopAt {
		return
	}
	for _, dst := range st.targets {
		nic.Send(dst, st.payload, netsim.AffHint{}, nil)
		inj.stormFrames++
	}
	inj.eng.After(st.period, func(at units.Time) { inj.stormTick(nic, st, at) })
}

// snapshot assembles a Stats view from the per-server bookkeeping.
func (inj *Injector) snapshot() Stats {
	st := Stats{
		StallsInjected: inj.stalls,
		StallTime:      inj.stallTime,
		StormFrames:    inj.stormFrames,
		Downtime:       make([]units.Time, len(inj.downtime)),
	}
	copy(st.Downtime, inj.downtime)
	for srv := range inj.crashes {
		st.Crashes += inj.crashes[srv]
		if inj.lastRevive[srv] > st.LastReviveAt {
			st.LastReviveAt = inj.lastRevive[srv]
		}
	}
	return st
}

// Finish closes the downtime of servers still down at now (a crash
// without a revive) and returns the final stats. Call it once, after
// the run drains.
func (inj *Injector) Finish(now units.Time) Stats {
	for srv := range inj.down {
		if inj.down[srv] {
			inj.downtime[srv] += now - inj.downSince[srv]
			inj.down[srv] = false
		}
	}
	return inj.snapshot()
}
