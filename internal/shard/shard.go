// Package shard composes several sim.Engines into one conservatively
// synchronized simulation under a single logical clock.
//
// The executor runs barrier-synchronous rounds. Each round it (1)
// drains every shard's mailbox — cross-shard events accumulated last
// round, sorted by their delivery key and injected with
// sim.ScheduleRemote so they land exactly where a shared engine would
// have put them; (2) computes the global horizon, the minimum next
// event time across all shards plus the lookahead (the fabric's
// minimum cross-shard latency); and (3) runs every shard up to the
// horizon, in shard order, on the calling goroutine. Any event below
// the horizon can only be affected by cross-shard messages sent before
// (horizon - lookahead), and those were all delivered in step (1), so
// the composed run is bit-identical to the single-engine run for any
// shard count. The determinism argument is spelled out in DESIGN.md
// §12, along with why the rounds are not spread over goroutines.
package shard

import (
	"cmp"
	"fmt"
	"slices"

	"sais/internal/sim"
	"sais/internal/units"
)

// Msg is one cross-shard event: a callback to run on the destination
// shard at At, carrying the provenance key that makes same-instant
// delivery order layout-invariant. Ties are broken by the compound
// key (At, SentAt, Origin, Seq) — deterministic sequence numbers, not
// arrival order.
type Msg struct {
	At     units.Time // delivery time on the destination shard
	SentAt units.Time // when the source shard scheduled it
	Origin uint64     // source tie-break class (e.g. netsim FrameKey origin); nonzero
	Seq    uint64     // per-origin sequence at the source
	Fn     sim.Event
}

// msgCmp is the canonical mailbox order, mirroring the engine's
// compound event key, as a three-way comparison for slices.SortFunc.
func msgCmp(a, b Msg) int {
	if c := cmp.Compare(a.At, b.At); c != 0 {
		return c
	}
	if c := cmp.Compare(a.SentAt, b.SentAt); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Origin, b.Origin); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// Engine drives a set of sim.Engines as one simulation. Construct
// with New, wire cross-shard channels to Post, then call Run once.
type Engine struct {
	engs      []*sim.Engine
	lookahead units.Time

	// out[src][dst] buffers messages posted by shard src for shard dst
	// during the current round; collect moves the rows into inbox at
	// the barrier.
	//saisvet:mailbox
	out [][][]Msg
	// inbox[dst] holds the messages collected for shard dst at the last
	// barrier, drained into its engine at the top of the next round.
	//saisvet:mailbox
	inbox [][]Msg

	stop    func() bool
	stopped bool
}

// New builds an executor over engs. lookahead is the minimum
// simulated latency of any cross-shard message (the fabric switch
// latency); it must be positive when more than one engine is
// composed, because a zero lookahead admits no safe horizon.
func New(engs []*sim.Engine, lookahead units.Time) *Engine {
	if len(engs) == 0 {
		panic("shard: no engines")
	}
	if lookahead <= 0 && len(engs) > 1 {
		panic("shard: conservative execution needs a positive lookahead")
	}
	s := &Engine{
		engs:      engs,
		lookahead: lookahead,
		out:       make([][][]Msg, len(engs)),
		inbox:     make([][]Msg, len(engs)),
	}
	for i := range s.out {
		//lint:shardsafety constructor wiring: the engine has not been published yet
		s.out[i] = make([][]Msg, len(engs))
	}
	return s
}

// Post enqueues a cross-shard message from shard src to shard dst.
// It must be called from an event executing on shard src during a
// round (the fabric's remote hook). The delivery time must respect
// the lookahead — the executor's safety rests on it.
//
//saisvet:allocfree
func (s *Engine) Post(src, dst int, m Msg) {
	if m.Origin == 0 {
		panic("shard: message without an origin")
	}
	if m.At < m.SentAt+s.lookahead {
		panic(fmt.Sprintf("shard: message delivery %v under lookahead (sent %v + %v)",
			m.At, m.SentAt, s.lookahead))
	}
	s.out[src][dst] = append(s.out[src][dst], m)
}

// SetStop installs a stop condition polled between rounds — the
// sharded counterpart of sim.Engine.SetStop, typically closing over a
// context and a progress callback. A nil cond removes it.
func (s *Engine) SetStop(cond func() bool) { s.stop = cond }

// Stopped reports whether the last Run returned because the stop
// condition fired rather than because every shard drained.
func (s *Engine) Stopped() bool { return s.stopped }

// Fired returns the total number of events executed across shards.
func (s *Engine) Fired() uint64 {
	var n uint64
	for _, e := range s.engs {
		n += e.Fired()
	}
	return n
}

// Live returns the number of live events queued across shards plus
// cross-shard messages awaiting delivery.
func (s *Engine) Live() int {
	n := 0
	for _, e := range s.engs {
		n += e.Live()
	}
	for _, box := range s.inbox {
		n += len(box)
	}
	return n
}

// Now returns the global safe clock: the minimum shard clock. Every
// event at or before this time has fired on every shard.
func (s *Engine) Now() units.Time {
	if len(s.engs) == 0 {
		return 0
	}
	min := s.engs[0].Now()
	for _, e := range s.engs[1:] {
		if t := e.Now(); t < min {
			min = t
		}
	}
	return min
}

// MaxNow returns the latest shard clock — after a full drain, the
// run's makespan.
func (s *Engine) MaxNow() units.Time {
	var max units.Time
	for _, e := range s.engs {
		if t := e.Now(); t > max {
			max = t
		}
	}
	return max
}

// Run executes rounds until every shard is idle and no messages are
// in flight, or the stop condition fires. It returns the makespan
// (latest shard clock).
//
//saisvet:allocfree
func (s *Engine) Run() units.Time {
	s.stopped = false
	for {
		s.deliver()
		//lint:alloc caller-supplied stop condition, polled once per round
		if s.stop != nil && s.stop() {
			s.stopped = true
			return s.MaxNow()
		}
		horizon, ok := s.horizon()
		if !ok {
			return s.MaxNow()
		}
		s.round(horizon)
		s.collect()
	}
}

// deliver drains each shard's mailbox into its engine in canonical
// order. Injection order only matters for the engine's local seq,
// which sits last in the compound key; sorting makes delivery
// independent of which source shard posted first.
//
//saisvet:allocfree
func (s *Engine) deliver() {
	for dst, box := range s.inbox {
		if len(box) == 0 {
			continue
		}
		slices.SortFunc(box, msgCmp)
		eng := s.engs[dst]
		for i := range box {
			m := box[i]
			eng.ScheduleRemote(m.At, m.SentAt, m.Origin, m.Fn)
			box[i] = Msg{}
		}
		s.inbox[dst] = box[:0]
	}
}

// horizon returns the exclusive event-time bound of the next round:
// the earliest pending event anywhere plus the lookahead. ok is false
// when every shard is idle (mailboxes are empty here — deliver ran).
//
//saisvet:allocfree
func (s *Engine) horizon() (units.Time, bool) {
	var tmin units.Time
	found := false
	for _, e := range s.engs {
		if at, ok := e.PeekNextEventTime(); ok && (!found || at < tmin) {
			tmin, found = at, true
		}
	}
	if !found {
		return 0, false
	}
	h := tmin + s.lookahead
	if len(s.engs) == 1 {
		// A lone shard needs no conservative bound: run to idle-or-stop
		// in one round.
		h = units.Forever
	}
	if h < tmin { // overflow clamp
		h = units.Forever
	}
	return h, true
}

// round runs every shard up to (but excluding) horizon, in shard
// order.
//
//saisvet:allocfree
func (s *Engine) round(horizon units.Time) {
	for _, e := range s.engs {
		e.RunBefore(horizon)
	}
}

// collect moves every out-buffer row into the destination mailboxes.
// Append order (by source shard) is irrelevant: deliver sorts.
//
//saisvet:allocfree
func (s *Engine) collect() {
	for src := range s.out {
		for dst, row := range s.out[src] {
			if len(row) == 0 {
				continue
			}
			s.inbox[dst] = append(s.inbox[dst], row...)
			for i := range row {
				row[i] = Msg{}
			}
			s.out[src][dst] = row[:0]
		}
	}
}
