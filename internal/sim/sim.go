// Package sim implements the discrete-event simulation engine that every
// SAIs subsystem runs on.
//
// The engine is a single-threaded event queue over a virtual nanosecond
// clock (units.Time). Determinism is a hard requirement — the paper's
// experiments are reproduced as exact functions of (config, seed) — so
// ties in event time are broken by the compound key (at, schedAt,
// origin, seq): for plain local events this reduces to scheduling
// order (two events scheduled for the same instant fire in the order
// they were scheduled), while origin-tagged events (frame deliveries)
// order by their source so the tie-break survives engine composition
// (internal/shard).
//
// The hot path is allocation-free in steady state. Scheduled events
// live by value in a slab arena recycled through a free list; the
// binary heap orders int32 arena indices, not pointers; and events
// scheduled for the current instant (the Immediately chains of
// NIC→APIC→core hand-offs) bypass the heap entirely through a FIFO
// ring. Timers are generation-checked {index, generation} handles, so
// Cancel is O(1) and safe across slot reuse; cancelled events are
// removed lazily and compacted in bulk once they outnumber the live
// ones. See DESIGN.md §9 for the layout and the determinism argument.
package sim

import (
	"fmt"

	"sais/internal/units"
)

// Event is a callback scheduled to run at a point in simulated time.
type Event func(now units.Time)

// item is a scheduled event in the arena slab.
//
// Ordering is by the compound key (at, schedAt, origin, seq). For
// events scheduled locally (schedAt = now at scheduling time, origin
// 0) this is exactly the historical (at, seq) order, because seq is
// monotone in scheduling time. The two extra fields exist so an event
// can carry provenance that is invariant under engine composition:
// when the cluster is sharded, an event injected from another shard
// keeps the schedAt/origin it would have had on a single engine, and
// the compound key makes same-instant ties fire in the same order
// regardless of how nodes were partitioned. See DESIGN.md §12.
type item struct {
	at      units.Time
	schedAt units.Time // when the event was scheduled (≤ at)
	seq     uint64
	origin  uint64 // composition tie-break class; 0 = plain local event
	fn      Event
	gen     uint32
	dead    bool // cancelled (still queued) or freed
}

// Timer is a handle to a scheduled event that can be cancelled. It is a
// value: copy it freely, the zero value is an inert handle. A handle
// holds the arena slot and the generation observed at scheduling time,
// so a handle kept across its event's firing (and the slot's reuse)
// can never cancel the slot's next tenant.
type Timer struct {
	eng *Engine
	idx int32
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled timer — or the zero Timer — is a no-op. It reports
// whether the event was still pending. Cancellation is O(1): the arena
// slot is marked dead and reaped lazily (or in bulk by compaction).
//
//saisvet:allocfree
func (t Timer) Cancel() bool {
	e := t.eng
	if e == nil {
		return false
	}
	it := &e.arena[t.idx]
	if it.gen != t.gen || it.dead {
		return false
	}
	it.dead = true
	it.fn = nil
	e.deadCount++
	e.maybeCompact()
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (t Timer) Pending() bool {
	if t.eng == nil {
		return false
	}
	it := &t.eng.arena[t.idx]
	return it.gen == t.gen && !it.dead
}

// stopPollInterval is how many events Run executes between polls of
// the stop condition. Polling per event would put a closure call (for
// context cancellation, an atomic load behind a mutexed Err) on the
// hot path; 64 events keeps the overhead unmeasurable while still
// bounding cancellation latency to a sliver of simulated work.
const stopPollInterval = 64

// compactMin is the dead-item floor below which compaction never runs:
// rebuilding a tiny queue costs more than lazily skipping its corpses.
const compactMin = 64

// Engine is the event queue and clock. The zero value is not usable;
// call NewEngine.
type Engine struct {
	now units.Time
	seq uint64

	// arena is the slab of scheduled events; free lists its recyclable
	// slots. heap orders arena indices by (at, seq). fifo is the
	// same-instant fast path: events scheduled for exactly the current
	// instant are appended here (seq order = FIFO order) and never
	// touch the heap. fifoHead is the ring's consume cursor.
	arena    []item
	free     []int32
	heap     []int32
	fifo     []int32
	fifoHead int
	// deadCount tracks cancelled events still occupying heap or fifo
	// slots, awaiting lazy removal or compaction.
	deadCount int

	fired   uint64
	stop    func() bool
	pollNow bool // poll the stop condition at the next loop iteration
	stopped bool
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{
		arena: make([]item, 0, 1024),
		heap:  make([]int32, 0, 1024),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// Fired returns the number of events executed so far; useful as a
// progress measure and a determinism check in tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events occupying queue slots, including
// cancelled events that have not been lazily removed or compacted yet.
// It is a capacity gauge, not a work gauge — use Live for the number of
// events that will actually fire.
func (e *Engine) Pending() int { return len(e.heap) + len(e.fifo) - e.fifoHead }

// Live returns the number of events that are scheduled and not
// cancelled — Pending minus the cancelled events awaiting removal.
// Progress estimates should use Live: a retry/fault-heavy run cancels
// timers in bulk, and counting those corpses inflates the denominator.
func (e *Engine) Live() int { return e.Pending() - e.deadCount }

// alloc claims an arena slot for (at, fn) and returns its index.
//
//saisvet:allocfree
func (e *Engine) alloc(at units.Time, fn Event) int32 {
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, item{})
		idx = int32(len(e.arena) - 1)
	}
	it := &e.arena[idx]
	it.at = at
	it.schedAt = e.now
	it.seq = e.seq
	it.origin = 0
	it.fn = fn
	it.dead = false
	e.seq++
	return idx
}

// release returns an arena slot to the free list, bumping its
// generation so stale Timer handles can never touch the next tenant.
//
//saisvet:allocfree
func (e *Engine) release(idx int32) {
	it := &e.arena[idx]
	it.fn = nil
	it.dead = true
	it.gen++
	e.free = append(e.free, idx)
}

// At schedules fn to run at absolute time at. Scheduling in the past
// panics: it always indicates a modelling bug, and silently clamping
// would hide causality violations.
//
//saisvet:allocfree
func (e *Engine) At(at units.Time, fn Event) Timer {
	if fn == nil {
		panic("sim: nil event")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (now=%v at=%v)", e.now, at))
	}
	idx := e.alloc(at, fn)
	if at == e.now {
		// Same-instant fast path: seq order is FIFO order, and the
		// fifo ring drains before the clock can advance, so the heap
		// never sees these events at all.
		e.fifo = append(e.fifo, idx)
	} else {
		e.heapPush(idx)
	}
	return Timer{eng: e, idx: idx, gen: e.arena[idx].gen}
}

// After schedules fn to run d after the current time.
//
//saisvet:allocfree
func (e *Engine) After(d units.Time, fn Event) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Immediately schedules fn to run at the current instant, after all
// events already scheduled for this instant.
func (e *Engine) Immediately(fn Event) Timer { return e.At(e.now, fn) }

// AtOrigin schedules fn at absolute time at, tagged with a nonzero
// origin key. Origin-tagged events at the same (at, schedAt) fire in
// origin order rather than scheduling order, which makes the firing
// order a function of the event's provenance instead of the engine's
// call sequence — the property sharded composition needs (frame
// deliveries are tagged with their source node, so two NICs whose
// frames collide on one instant order identically whether they share
// an engine or not). Tagged events always take the heap path, never
// the same-instant fifo ring: at equal (at, schedAt) the untagged
// fifo events (origin 0) still fire first, preserving a single total
// order.
//
//saisvet:allocfree
func (e *Engine) AtOrigin(at units.Time, origin uint64, fn Event) Timer {
	if origin == 0 {
		panic("sim: AtOrigin requires a nonzero origin")
	}
	if fn == nil {
		panic("sim: nil event")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (now=%v at=%v)", e.now, at))
	}
	idx := e.alloc(at, fn)
	e.arena[idx].origin = origin
	e.heapPush(idx)
	return Timer{eng: e, idx: idx, gen: e.arena[idx].gen}
}

// ScheduleRemote injects an event that was logically scheduled at
// schedAt on another engine for delivery here at at. The full
// compound key (at, schedAt, origin) is supplied by the caller, so
// the event sorts exactly where it would have sorted had both nodes
// shared one engine. schedAt must not exceed at (causality) and
// origin must be nonzero (remote events are never in the local
// scheduling-order class).
//
//saisvet:allocfree
func (e *Engine) ScheduleRemote(at, schedAt units.Time, origin uint64, fn Event) Timer {
	if origin == 0 {
		panic("sim: ScheduleRemote requires a nonzero origin")
	}
	if schedAt > at {
		panic(fmt.Sprintf("sim: remote event violates causality (schedAt=%v at=%v)", schedAt, at))
	}
	if fn == nil {
		panic("sim: nil event")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (now=%v at=%v)", e.now, at))
	}
	idx := e.alloc(at, fn)
	it := &e.arena[idx]
	it.schedAt = schedAt
	it.origin = origin
	e.heapPush(idx)
	return Timer{eng: e, idx: idx, gen: it.gen}
}

// SetStop installs a stop condition polled by Run at event-loop
// granularity (immediately at the next loop iteration — even when
// installed mid-run from inside an event — then every
// stopPollInterval events). When cond returns true the loop returns
// early and Stopped reports true. The canonical use is context
// cancellation:
//
//	eng.SetStop(func() bool { return ctx.Err() != nil })
//
// A nil cond removes the condition.
func (e *Engine) SetStop(cond func() bool) {
	e.stop = cond
	e.pollNow = cond != nil
}

// Stopped reports whether the most recent Run returned because the
// stop condition fired (as opposed to draining the queue, hitting the
// deadline).
func (e *Engine) Stopped() bool { return e.stopped }

// next locates the earliest live event without removing it, lazily
// discarding cancelled entries at the queue fronts. It reports whether
// the event sits in the fifo ring (true) or the heap (false), and
// whether any live event exists at all.
//
//saisvet:allocfree
func (e *Engine) next() (fromFifo, ok bool) {
	for e.fifoHead < len(e.fifo) {
		idx := e.fifo[e.fifoHead]
		if !e.arena[idx].dead {
			break
		}
		e.fifoHead++
		e.deadCount--
		e.release(idx)
	}
	if e.fifoHead == len(e.fifo) && len(e.fifo) > 0 {
		e.fifo = e.fifo[:0]
		e.fifoHead = 0
	}
	for len(e.heap) > 0 {
		idx := e.heap[0]
		if !e.arena[idx].dead {
			break
		}
		e.heapPop()
		e.deadCount--
		e.release(idx)
	}
	hasFifo := e.fifoHead < len(e.fifo)
	hasHeap := len(e.heap) > 0
	switch {
	case !hasFifo && !hasHeap:
		return false, false
	case !hasFifo:
		return false, true
	case !hasHeap:
		return true, true
	}
	f, h := &e.arena[e.fifo[e.fifoHead]], &e.arena[e.heap[0]]
	if keyLess(h, f) {
		return false, true
	}
	return true, true
}

// nextAt returns the (at) of the live event next() located; call only
// after next() reported ok.
//
//saisvet:allocfree
func (e *Engine) nextAt(fromFifo bool) units.Time {
	if fromFifo {
		return e.arena[e.fifo[e.fifoHead]].at
	}
	return e.arena[e.heap[0]].at
}

// fire pops and executes the live event next() located.
//
//saisvet:allocfree
func (e *Engine) fire(fromFifo bool) {
	var idx int32
	if fromFifo {
		idx = e.fifo[e.fifoHead]
		e.fifoHead++
		if e.fifoHead == len(e.fifo) {
			e.fifo = e.fifo[:0]
			e.fifoHead = 0
		}
	} else {
		idx = e.heapPop()
	}
	it := &e.arena[idx]
	if it.at < e.now {
		panic("sim: queue produced an event from the past")
	}
	e.now = it.at
	fn := it.fn
	e.release(idx)
	e.fired++
	// The slot is already recycled: fn may schedule freely (growing the
	// arena) without invalidating anything we still hold.
	//lint:alloc event-callback invocation: the callback's allocations belong to its owner's budget, not the loop's
	fn(e.now)
}

// --- step primitives ---
//
// These decompose Run's loop so an external executor (internal/shard)
// can drive several engines under one logical clock: peek each
// engine's next event time, compute a safe horizon, and process
// events below it. They share next()'s lazy dead-event discard, so
// peeking has the same amortized cost as running.

// PeekNextEventTime returns the time of the earliest live event
// without executing it. ok is false when the queue holds no live
// events.
func (e *Engine) PeekNextEventTime() (at units.Time, ok bool) {
	fromFifo, ok := e.next()
	if !ok {
		return 0, false
	}
	return e.nextAt(fromFifo), true
}

// RunBefore executes every event with time strictly below horizon and
// returns the number executed. The clock is left at the last executed
// event (not advanced to horizon): a later RunBefore or an injected
// remote event may still schedule work in [now, horizon). RunBefore
// ignores the stop condition — under sharded execution it belongs to
// the composing executor, which checks it between rounds.
//
//saisvet:allocfree
func (e *Engine) RunBefore(horizon units.Time) int {
	n := 0
	for {
		fromFifo, ok := e.next()
		if !ok || e.nextAt(fromFifo) >= horizon {
			return n
		}
		e.fire(fromFifo)
		n++
	}
}

// Run executes events until the queue is empty, the stop condition
// installed by SetStop fires, or the clock passes deadline
// (units.Forever for no deadline). It returns the time at which the
// loop stopped.
//
//saisvet:allocfree
func (e *Engine) Run(deadline units.Time) units.Time {
	e.stopped = false
	sincePoll := 0
	for {
		if e.stop != nil && (sincePoll == 0 || e.pollNow) {
			e.pollNow = false
			sincePoll = 0
			//lint:alloc caller-supplied stop condition, polled every 64 events — off the per-event path
			if e.stop() {
				e.stopped = true
				return e.now
			}
		}
		if sincePoll++; sincePoll == stopPollInterval {
			sincePoll = 0
		}
		fromFifo, ok := e.next()
		if !ok {
			return e.now
		}
		if e.nextAt(fromFifo) > deadline {
			e.now = deadline
			return e.now
		}
		e.fire(fromFifo)
	}
}

// RunUntilIdle executes events until the queue is empty.
func (e *Engine) RunUntilIdle() units.Time { return e.Run(units.Forever) }

// --- cancellation compaction ---

// maybeCompact triggers a bulk sweep of cancelled events once they
// outnumber the live ones (and exceed a floor that keeps tiny queues
// lazy). Retry- and fault-heavy runs cancel timers wholesale; without
// compaction those corpses deepen the heap and linger until their
// nominal expiry wanders to the front.
//
//saisvet:allocfree
func (e *Engine) maybeCompact() {
	if e.deadCount < compactMin || e.deadCount*2 <= e.Pending() {
		return
	}
	e.compact()
}

// compact removes every cancelled event from the heap and fifo in one
// O(n) pass and restores the heap property.
//
//saisvet:allocfree
func (e *Engine) compact() {
	live := e.heap[:0]
	for _, idx := range e.heap {
		if e.arena[idx].dead {
			e.release(idx)
		} else {
			live = append(live, idx)
		}
	}
	e.heap = live
	for i := len(e.heap)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
	out := e.fifo[:0]
	for _, idx := range e.fifo[e.fifoHead:] {
		if e.arena[idx].dead {
			e.release(idx)
		} else {
			out = append(out, idx)
		}
	}
	e.fifo = out
	e.fifoHead = 0
	e.deadCount = 0
}

// --- binary heap of arena indices ordered by (at, schedAt, origin, seq) ---

// keyLess is the engine's total event order. at first (time), then
// schedAt (events scheduled earlier fire first within an instant —
// for local events this is implied by seq and changes nothing), then
// origin (the composition tie-break class), then seq (local FIFO).
func keyLess(x, y *item) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	if x.schedAt != y.schedAt {
		return x.schedAt < y.schedAt
	}
	if x.origin != y.origin {
		return x.origin < y.origin
	}
	return x.seq < y.seq
}

func (e *Engine) less(a, b int32) bool {
	return keyLess(&e.arena[a], &e.arena[b])
}

//saisvet:allocfree
func (e *Engine) heapPush(idx int32) {
	e.heap = append(e.heap, idx)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(e.heap[i], e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

//saisvet:allocfree
func (e *Engine) heapPop() int32 {
	top := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	if last > 0 {
		e.siftDown(0)
	}
	return top
}

//saisvet:allocfree
func (e *Engine) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(e.heap) && e.less(e.heap[l], e.heap[smallest]) {
			smallest = l
		}
		if r < len(e.heap) && e.less(e.heap[r], e.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		e.heap[i], e.heap[smallest] = e.heap[smallest], e.heap[i]
		i = smallest
	}
}
