// Package cpu models the client's multi-core processor. Each core
// executes work items under a two-level preemptive priority scheme —
// softirq (interrupt) work preempts process work, as in the Linux
// kernel whose behaviour the paper modifies — and accounts every busy
// nanosecond to a category so the evaluation figures (CPU utilization,
// CPU_CLK_UNHALTED) can be reproduced exactly as Oprofile/sar would
// report them.
//
// A core that is stalled on a cache miss is busy (unhalted): memory
// stalls burn cycles. A core with no work is halted. This is what makes
// Irqbalance's extra data migration visible in the unhalted-cycle
// figures.
package cpu

import (
	"fmt"

	"sais/internal/deque"
	"sais/internal/sim"
	"sais/internal/units"
)

// Priority of a work item. Lower value = higher priority.
type Priority int8

// Priorities.
const (
	PrioSoftirq Priority = iota // interrupt / softirq context
	PrioProcess                 // application process context
	numPriorities
)

// Category classifies busy time for the metrics breakdown.
type Category int8

// Busy-time categories.
const (
	CatIRQ       Category = iota // interrupt entry/dispatch
	CatSoftirq                   // protocol processing of strip data
	CatMigration                 // stall cycles pulling lines from a peer cache
	CatMemStall                  // stall cycles filling from DRAM
	CatCompute                   // application computation (the IOR encrypt step)
	CatSyscall                   // request submission path
	CatOther
	numCategories
)

var categoryNames = [numCategories]string{
	"irq", "softirq", "migration", "memstall", "compute", "syscall", "other",
}

func (c Category) String() string {
	if c >= 0 && int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// task is one schedulable work item: one phase of cat, or a pair whose
// second phase of cat2 follows the first. Narrow priority and category
// fields keep it at 32 bytes.
type task struct {
	remaining units.Time // the current phase's remaining work
	second    units.Time // a pair's second phase while the first runs, else 0
	done      sim.Event
	prio      Priority
	cat       Category
	cat2      Category
	paired    bool // the first phase of a pair is still current
}

// CoreStats is the per-core accounting snapshot.
type CoreStats struct {
	Busy       units.Time // total unhalted time
	ByCategory [numCategories]units.Time
	Completed  uint64 // work items finished
	Preempts   uint64 // process work preempted by softirq
	Rotations  uint64 // timeslice expirations that rotated the run queue
}

// SpanHook observes every banked busy slice of a core: the slice ran on
// core in category cat over [start, end). Used by the span tracer to
// build per-core activity tracks; nil when tracing is off.
type SpanHook func(core int, cat Category, start, end units.Time)

// Core is one processor core: a preemptive two-level priority queue
// over simulated time.
type Core struct {
	id      int
	eng     *sim.Engine
	quantum units.Time // 0 = run process work to completion

	// queues holds each priority's waiting tasks by value, so queueing,
	// preempting and rotating work allocates nothing once a queue has
	// grown to the core's peak depth.
	queues [numPriorities]deque.Deque[task]
	// pairs counts the queued or running pairs still in their first
	// phase: each holds one more waiting work item, its second phase.
	pairs   int
	run     task // the executing task, valid while running
	running bool
	// runRotating records whether the current slice ends in a rotation
	// (timeslice expiry) rather than completion.
	runRotating bool
	runTm       sim.Timer
	ranAt       units.Time

	// sliceEndFn is c.sliceEnd bound once, so scheduling a slice end
	// allocates no closure.
	sliceEndFn sim.Event

	// spanHook, when set, observes every completed execution span.
	//saisvet:nilhook
	spanHook SpanHook

	stats CoreStats
}

// SetQuantum enables round-robin timeslicing of process-priority work:
// a running process item is rotated to the back of the run queue after
// d if other process work is waiting — the kernel scheduler's fairness
// between co-located applications. Zero (the default) runs each item to
// completion.
func (c *Core) SetQuantum(d units.Time) {
	if d < 0 {
		panic("cpu: negative quantum")
	}
	c.quantum = d
}

// SetSpanHook installs (or clears, with nil) the busy-slice observer.
func (c *Core) SetSpanHook(h SpanHook) { c.spanHook = h }

// Stats returns a snapshot of the accounting, charging the in-flight
// slice of any currently running task so mid-run reads are exact.
func (c *Core) Stats() CoreStats {
	s := c.stats
	if c.running {
		first, rest, crossed := c.split(c.eng.Now())
		s.Busy += first + rest
		s.ByCategory[c.run.cat] += first
		if crossed {
			s.ByCategory[c.run.cat2] += rest
			s.Completed++
		}
	}
	return s
}

// QueueLen returns the number of waiting (not running) work items. A
// pair counts as the two items it stands for: both while it waits, its
// second phase while its first runs.
func (c *Core) QueueLen() int {
	n := c.pairs
	for i := range c.queues {
		n += c.queues[i].Len()
	}
	if c.running {
		if _, _, crossed := c.split(c.eng.Now()); crossed {
			n-- // the running pair's second phase has begun
		}
	}
	return n
}

// Submit queues work of the given duration; done (optional) fires when
// it completes. Softirq-priority work preempts process-priority work
// immediately.
//
//saisvet:allocfree
func (c *Core) Submit(prio Priority, cat Category, d units.Time, done sim.Event) {
	c.enqueue(task{remaining: d, prio: prio, cat: cat, done: done})
}

// SubmitPair queues one work item of two phases with no completion
// callback: d1 of cat1, then d2 of cat2. Busy time, spans, Preempts,
// Completed and QueueLen match two back-to-back Submits of the phases
// with nil callbacks, but the pair costs one completion event instead
// of two. Only the event order at the instant the first phase ends or
// the pair finishes can differ: an event due then fires before or after
// the pair's own by the keys they were scheduled with. To a timeslice
// quantum a process-priority pair is one item and rotates as one.
//
//saisvet:allocfree
func (c *Core) SubmitPair(prio Priority, cat1 Category, d1 units.Time, cat2 Category, d2 units.Time) {
	c.enqueue(task{remaining: d1, second: d2, prio: prio, cat: cat1, cat2: cat2, paired: true})
}

// enqueue validates t and queues it at the back of its priority.
//
//saisvet:allocfree
func (c *Core) enqueue(t task) {
	if t.prio < 0 || t.prio >= numPriorities {
		panic(fmt.Sprintf("cpu: bad priority %d", t.prio))
	}
	if t.remaining < 0 || t.second < 0 {
		panic("cpu: negative duration")
	}
	if t.paired {
		c.pairs++
	}
	c.queues[t.prio].PushBack(t)
	c.reschedule()
}

// reschedule ensures the highest-priority waiting task is running,
// preempting lower-priority work.
//
//saisvet:allocfree
func (c *Core) reschedule() {
	next := c.nextPrio()
	if next < 0 {
		return
	}
	if c.running {
		if c.run.prio < next {
			return // current work has strictly higher priority
		}
		if c.run.prio == next {
			// Same priority never preempts, but a newly arrived process
			// task must engage the timeslice if the current task was
			// scheduled to run to completion.
			if c.quantum <= 0 || c.run.prio != PrioProcess || c.runRotating {
				return
			}
			c.bankAndRequeueFront()
			c.start()
			return
		}
		// Higher-priority arrival: preempt.
		c.bankAndRequeueFront()
		c.stats.Preempts++
	}
	c.start()
}

// split divides the running task's slice [ranAt, now) at its phase
// boundary: first belongs to run.cat; rest, when the slice crossed the
// end of a pair's first phase, to run.cat2. The first phase holds the
// instant it ends, as the first of two Submits would until its
// completion event fires.
func (c *Core) split(now units.Time) (first, rest units.Time, crossed bool) {
	elapsed := now - c.ranAt
	if !c.run.paired || elapsed <= c.run.remaining {
		return elapsed, 0, false
	}
	return c.run.remaining, elapsed - c.run.remaining, true
}

// bank charges the running task's slice [ranAt, now) to the accounting
// and the span hook, and deducts it from the task's remaining work. A
// slice that crosses a pair's phase boundary is charged as two, and the
// first phase counts as a completed item.
//
//saisvet:allocfree
func (c *Core) bank(now units.Time) {
	first, rest, crossed := c.split(now)
	mid := c.ranAt + first
	c.charge(c.run.cat, c.ranAt, mid)
	c.run.remaining = max(c.run.remaining-first, 0)
	if crossed {
		c.stats.Completed++
		c.pairs--
		c.charge(c.run.cat2, mid, now)
		c.run = task{remaining: max(c.run.second-rest, 0), prio: c.run.prio, cat: c.run.cat2}
	}
}

// charge books the busy slice [from, to) of category cat.
//
//saisvet:allocfree
func (c *Core) charge(cat Category, from, to units.Time) {
	c.stats.Busy += to - from
	c.stats.ByCategory[cat] += to - from
	if c.spanHook != nil && to > from {
		//lint:alloc span-hook callback invocation: the tracer's allocations belong to its own budget
		c.spanHook(c.id, cat, from, to)
	}
}

// bankAndRequeueFront charges the elapsed slice of the running task and
// puts it back at the head of its queue.
//
//saisvet:allocfree
func (c *Core) bankAndRequeueFront() {
	c.bank(c.eng.Now())
	c.runTm.Cancel()
	c.queues[c.run.prio].PushFront(c.run)
	c.running = false
}

// nextPrio returns the priority of the next waiting task, or -1 when
// every queue is empty.
func (c *Core) nextPrio() Priority {
	for p := range c.queues {
		if c.queues[p].Len() > 0 {
			return Priority(p)
		}
	}
	return -1
}

// start pops the next task and runs it until completion, preemption, or
// timeslice expiry.
//
//saisvet:allocfree
func (c *Core) start() {
	p := c.nextPrio()
	if p < 0 {
		return
	}
	c.run = c.queues[p].PopFront()
	c.running = true
	c.ranAt = c.eng.Now()
	slice := c.run.remaining + c.run.second
	c.runRotating = c.quantum > 0 && p == PrioProcess &&
		c.queues[PrioProcess].Len() > 0 && slice > c.quantum
	if c.runRotating {
		slice = c.quantum
	}
	c.runTm = c.eng.After(slice, c.sliceEndFn)
}

// sliceEnd ends the running slice: by rotation if it was a timeslice,
// by completion otherwise.
//
//saisvet:allocfree
func (c *Core) sliceEnd(now units.Time) {
	if c.runRotating {
		c.rotate(now)
	} else {
		c.finish(now)
	}
}

// rotate expires the running task's timeslice: bank the slice, move it
// to the back of its queue, and dispatch the next task.
//
//saisvet:allocfree
func (c *Core) rotate(now units.Time) {
	c.bank(now)
	c.stats.Rotations++
	c.running = false
	c.queues[c.run.prio].PushBack(c.run)
	c.start()
}

// finish completes the running task, dispatches the next one, then
// fires the completed task's callback.
//
//saisvet:allocfree
func (c *Core) finish(now units.Time) {
	c.bank(now)
	if c.run.paired { // an empty second phase ends with its first
		c.pairs--
		c.stats.Completed++
	}
	done := c.run.done
	c.stats.Completed++
	c.running = false
	c.run = task{}
	c.start()
	if done != nil {
		//lint:alloc done-callback invocation: the callback's allocations belong to the submitter's budget
		done(now)
	}
}

// CPU is the full processor: a set of cores with one clock frequency.
type CPU struct {
	cores []Core
	freq  units.Hertz
}

// New builds a CPU with n idle cores at freq.
func New(eng *sim.Engine, n int, freq units.Hertz) *CPU {
	if n <= 0 {
		panic("cpu: need at least one core")
	}
	if freq <= 0 {
		panic("cpu: non-positive frequency")
	}
	cores := make([]Core, n)
	for i := range cores {
		c := &cores[i]
		*c = Core{id: i, eng: eng}
		c.sliceEndFn = c.sliceEnd
	}
	return &CPU{cores: cores, freq: freq}
}

// NumCores returns the core count.
func (p *CPU) NumCores() int { return len(p.cores) }

// SetQuantum applies a timeslice quantum to every core.
func (p *CPU) SetQuantum(d units.Time) {
	for i := range p.cores {
		p.cores[i].SetQuantum(d)
	}
}

// SetSpanHook installs the busy-slice observer on every core.
func (p *CPU) SetSpanHook(h SpanHook) {
	for i := range p.cores {
		p.cores[i].SetSpanHook(h)
	}
}

// Core returns core i.
func (p *CPU) Core(i int) *Core { return &p.cores[i] }

// TotalStats sums per-core accounting.
func (p *CPU) TotalStats() CoreStats {
	var s CoreStats
	for i := range p.cores {
		cs := p.cores[i].Stats()
		s.Busy += cs.Busy
		s.Completed += cs.Completed
		s.Preempts += cs.Preempts
		s.Rotations += cs.Rotations
		for i := range cs.ByCategory {
			s.ByCategory[i] += cs.ByCategory[i]
		}
	}
	return s
}

// UnhaltedCycles returns aggregate CPU_CLK_UNHALTED over the run.
func (p *CPU) UnhaltedCycles() units.Cycles {
	return p.freq.CyclesIn(p.TotalStats().Busy)
}
