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

	"sais/internal/sim"
	"sais/internal/units"
)

// Priority of a work item. Lower value = higher priority.
type Priority int

// Priorities.
const (
	PrioSoftirq Priority = iota // interrupt / softirq context
	PrioProcess                 // application process context
	numPriorities
)

// Category classifies busy time for the metrics breakdown.
type Category int

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

// task is one schedulable work item.
type task struct {
	remaining units.Time
	prio      Priority
	cat       Category
	done      sim.Event
}

// taskQueue is one priority's run queue: a ring-buffer deque of tasks
// held by value, so queueing, preempting and rotating work never
// allocates once the ring has grown to the core's peak queue depth.
// The capacity is zero or a power of two.
type taskQueue struct {
	buf  []task
	head int // index of the front task
	n    int // number of queued tasks
}

func (q *taskQueue) len() int { return q.n }

//saisvet:allocfree
func (q *taskQueue) pushBack(t task) {
	if q.n == len(q.buf) {
		//lint:alloc amortized ring growth: doubles only when the queue exceeds its peak depth
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = t
	q.n++
}

//saisvet:allocfree
func (q *taskQueue) pushFront(t task) {
	if q.n == len(q.buf) {
		//lint:alloc amortized ring growth: doubles only when the queue exceeds its peak depth
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = t
	q.n++
}

// popFront removes and returns the head task; the queue must not be
// empty. The vacated slot is cleared so the ring keeps no reference to
// a finished task's completion callback.
//
//saisvet:allocfree
func (q *taskQueue) popFront() task {
	t := q.buf[q.head]
	q.buf[q.head] = task{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return t
}

// grow doubles the ring (minimum 8 slots), unwrapping it so the front
// task lands at index 0.
func (q *taskQueue) grow() {
	buf := make([]task, max(8, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}

// CoreStats is the per-core accounting snapshot.
type CoreStats struct {
	Busy       units.Time // total unhalted time
	ByCategory [numCategories]units.Time
	Completed  uint64 // work items finished
	Preempts   uint64 // process work preempted by softirq
	Rotations  uint64 // timeslice expirations that rotated the run queue
}

// UnhaltedCycles converts busy time to CPU_CLK_UNHALTED at frequency f.
func (s CoreStats) UnhaltedCycles(f units.Hertz) units.Cycles {
	return f.CyclesIn(s.Busy)
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
	freq    units.Hertz
	quantum units.Time // 0 = run process work to completion

	queues  [numPriorities]taskQueue
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

// ID returns the core index.
func (c *Core) ID() int { return c.id }

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

// Freq returns the clock frequency.
func (c *Core) Freq() units.Hertz { return c.freq }

// SetSpanHook installs (or clears, with nil) the busy-slice observer.
func (c *Core) SetSpanHook(h SpanHook) { c.spanHook = h }

// Stats returns a snapshot of the accounting, charging the in-flight
// slice of any currently running task so mid-run reads are exact.
func (c *Core) Stats() CoreStats {
	s := c.stats
	if c.running {
		elapsed := c.eng.Now() - c.ranAt
		s.Busy += elapsed
		s.ByCategory[c.run.cat] += elapsed
	}
	return s
}

// Busy reports whether the core is executing or has queued work.
func (c *Core) Busy() bool {
	return c.running || c.QueueLen() > 0
}

// QueueLen returns the number of waiting (not running) work items.
func (c *Core) QueueLen() int {
	n := 0
	for i := range c.queues {
		n += c.queues[i].len()
	}
	return n
}

// Submit queues work of the given duration; done (optional) fires when
// it completes. Softirq-priority work preempts process-priority work
// immediately.
//
//saisvet:allocfree
func (c *Core) Submit(prio Priority, cat Category, d units.Time, done sim.Event) {
	if prio < 0 || prio >= numPriorities {
		panic(fmt.Sprintf("cpu: bad priority %d", prio))
	}
	if d < 0 {
		panic("cpu: negative duration")
	}
	c.queues[prio].pushBack(task{remaining: d, prio: prio, cat: cat, done: done})
	c.reschedule()
}

// SubmitCycles queues work measured in cycles at this core's frequency.
func (c *Core) SubmitCycles(prio Priority, cat Category, cy units.Cycles, done sim.Event) {
	c.Submit(prio, cat, c.freq.Duration(cy), done)
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

// bank charges the running task's slice [ranAt, now) to the accounting
// and the span hook, and deducts it from the task's remaining work.
//
//saisvet:allocfree
func (c *Core) bank(now units.Time) {
	elapsed := now - c.ranAt
	c.stats.Busy += elapsed
	c.stats.ByCategory[c.run.cat] += elapsed
	if c.spanHook != nil && elapsed > 0 {
		//lint:alloc span-hook callback invocation: the tracer's allocations belong to its own budget
		c.spanHook(c.id, c.run.cat, c.ranAt, now)
	}
	c.run.remaining = max(c.run.remaining-elapsed, 0)
}

// bankAndRequeueFront charges the elapsed slice of the running task and
// puts it back at the head of its queue.
//
//saisvet:allocfree
func (c *Core) bankAndRequeueFront() {
	c.bank(c.eng.Now())
	c.runTm.Cancel()
	c.queues[c.run.prio].pushFront(c.run)
	c.running = false
}

// nextPrio returns the priority of the next waiting task, or -1 when
// every queue is empty.
func (c *Core) nextPrio() Priority {
	for p := range c.queues {
		if c.queues[p].len() > 0 {
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
	c.run = c.queues[p].popFront()
	c.running = true
	c.ranAt = c.eng.Now()
	slice := c.run.remaining
	c.runRotating = c.quantum > 0 && p == PrioProcess &&
		c.queues[PrioProcess].len() > 0 && slice > c.quantum
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
	c.queues[c.run.prio].pushBack(c.run)
	c.start()
}

// finish completes the running task, dispatches the next one, then
// fires the completed task's callback.
//
//saisvet:allocfree
func (c *Core) finish(now units.Time) {
	c.bank(now)
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
	eng   *sim.Engine
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
		*c = Core{id: i, eng: eng, freq: freq}
		c.sliceEndFn = c.sliceEnd
	}
	return &CPU{eng: eng, cores: cores, freq: freq}
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

// Freq returns the clock frequency.
func (p *CPU) Freq() units.Hertz { return p.freq }

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

// Utilization returns aggregate busy fraction over the wall-clock span
// [0, now] — the sar %CPU metric.
func (p *CPU) Utilization() float64 {
	now := p.eng.Now()
	if now <= 0 {
		return 0
	}
	total := p.TotalStats().Busy
	return float64(total) / float64(now) / float64(len(p.cores))
}

// UnhaltedCycles returns aggregate CPU_CLK_UNHALTED over the run.
func (p *CPU) UnhaltedCycles() units.Cycles {
	return p.freq.CyclesIn(p.TotalStats().Busy)
}
