package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"sais/internal/deque"
	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/units"
)

// refCore is the reference scheduler the value-typed run queues are
// checked against: the same two-level preemptive algorithm over
// slice-of-pointer queues, with a closure per slice end.
type refCore struct {
	id          int
	eng         *sim.Engine
	quantum     units.Time
	queues      [numPriorities][]*task
	run         *task
	runRotating bool
	runTm       sim.Timer
	ranAt       units.Time
	spanHook    SpanHook
	stats       CoreStats
}

func (c *refCore) Submit(prio Priority, cat Category, d units.Time, done sim.Event) {
	c.queues[prio] = append(c.queues[prio], &task{remaining: d, prio: prio, cat: cat, done: done})
	c.reschedule()
}

// SubmitPair is two back-to-back Submits with nil callbacks, the
// sequence Core.SubmitPair must match.
func (c *refCore) SubmitPair(prio Priority, cat1 Category, d1 units.Time, cat2 Category, d2 units.Time) {
	c.Submit(prio, cat1, d1, nil)
	c.Submit(prio, cat2, d2, nil)
}

func (c *refCore) Stats() CoreStats {
	s := c.stats
	if c.run != nil {
		elapsed := c.eng.Now() - c.ranAt
		s.Busy += elapsed
		s.ByCategory[c.run.cat] += elapsed
	}
	return s
}

func (c *refCore) QueueLen() int {
	n := 0
	for _, q := range c.queues {
		n += len(q)
	}
	return n
}

func (c *refCore) busy() bool { return c.run != nil || c.QueueLen() > 0 }

// busy reports whether the core is executing or has queued work.
func (c *Core) busy() bool { return c.running || c.QueueLen() > 0 }

func (c *refCore) reschedule() {
	next := c.peek()
	if next == nil {
		return
	}
	if c.run != nil {
		if c.run.prio < next.prio {
			return
		}
		if c.run.prio == next.prio {
			if c.quantum <= 0 || c.run.prio != PrioProcess || c.runRotating {
				return
			}
			c.bankAndRequeueFront()
			c.start()
			return
		}
		c.bankAndRequeueFront()
		c.stats.Preempts++
	}
	c.start()
}

func (c *refCore) bank(t *task, now units.Time) {
	elapsed := now - c.ranAt
	c.stats.Busy += elapsed
	c.stats.ByCategory[t.cat] += elapsed
	if c.spanHook != nil && elapsed > 0 {
		c.spanHook(c.id, t.cat, c.ranAt, now)
	}
	t.remaining -= elapsed
	if t.remaining < 0 {
		t.remaining = 0
	}
}

func (c *refCore) bankAndRequeueFront() {
	c.bank(c.run, c.eng.Now())
	c.runTm.Cancel()
	c.queues[c.run.prio] = append([]*task{c.run}, c.queues[c.run.prio]...)
	c.run = nil
}

func (c *refCore) peek() *task {
	for p := range c.queues {
		if len(c.queues[p]) > 0 {
			return c.queues[p][0]
		}
	}
	return nil
}

func (c *refCore) start() {
	for p := range c.queues {
		if len(c.queues[p]) == 0 {
			continue
		}
		t := c.queues[p][0]
		c.queues[p] = c.queues[p][1:]
		c.run = t
		c.ranAt = c.eng.Now()
		slice := t.remaining
		c.runRotating = c.quantum > 0 && t.prio == PrioProcess &&
			len(c.queues[PrioProcess]) > 0 && slice > c.quantum
		if c.runRotating {
			c.runTm = c.eng.After(c.quantum, func(now units.Time) { c.rotate(now) })
		} else {
			c.runTm = c.eng.After(slice, func(now units.Time) { c.finish(now) })
		}
		return
	}
}

func (c *refCore) rotate(now units.Time) {
	t := c.run
	c.bank(t, now)
	c.stats.Rotations++
	c.run = nil
	c.queues[t.prio] = append(c.queues[t.prio], t)
	c.start()
}

func (c *refCore) finish(now units.Time) {
	t := c.run
	c.bank(t, now)
	c.stats.Completed++
	c.run = nil
	c.start()
	if t.done != nil {
		t.done(now)
	}
}

// scheduler is the surface the differential test drives on both cores.
type scheduler interface {
	Submit(prio Priority, cat Category, d units.Time, done sim.Event)
	SubmitPair(prio Priority, cat1 Category, d1 units.Time, cat2 Category, d2 units.Time)
	Stats() CoreStats
	QueueLen() int
	busy() bool
}

// schedOp is one generated work item: submitted at at from outside, or
// (parent ≥ 0) from the completion callback of op parent. A pair op is
// a softirq SubmitPair whose second phase is d2 of cat2; it has no
// callback, so no op names it as parent.
type schedOp struct {
	at     units.Time
	parent int
	prio   Priority
	cat    Category
	d      units.Time
	pair   bool
	cat2   Category
	d2     units.Time
}

// genOps draws a random workload mixing priorities, zero-duration work,
// softirq pairs and follow-up submissions from completion callbacks.
func genOps(r *rng.Source) []schedOp {
	ops := make([]schedOp, r.Intn(60)+1)
	for i := range ops {
		op := schedOp{
			at:     units.Time(r.Intn(400)),
			parent: -1,
			prio:   Priority(r.Intn(int(numPriorities))),
			cat:    Category(r.Intn(int(numCategories))),
			d:      units.Time(r.Intn(60)),
		}
		if r.Bool(0.15) {
			op.d = 0
		}
		if i > 0 && r.Bool(0.25) {
			op.parent = r.Intn(i)
			if ops[op.parent].pair {
				op.parent = -1
			}
		}
		if r.Bool(0.2) {
			op.pair, op.prio = true, PrioSoftirq
			op.cat2, op.d2 = Category(r.Intn(int(numCategories))), units.Time(r.Intn(40))
			if r.Bool(0.15) {
				op.d2 = 0
			}
		}
		ops[i] = op
	}
	return ops
}

// schedLog is everything observable about one run.
type schedLog struct {
	completions []string // "op@time" in completion order
	spans       []string
	probes      []string // mid-run Stats/QueueLen/Busy snapshots
	final       CoreStats
}

// runOps drives ops through s on eng and records what it observed.
func runOps(eng *sim.Engine, s scheduler, ops []schedOp, probeAt []units.Time) *schedLog {
	log := &schedLog{}
	children := make([][]int, len(ops))
	for i, op := range ops {
		if op.parent >= 0 {
			children[op.parent] = append(children[op.parent], i)
		}
	}
	var submit func(i int)
	submit = func(i int) {
		op := ops[i]
		if op.pair {
			s.SubmitPair(op.prio, op.cat, op.d, op.cat2, op.d2)
			return
		}
		s.Submit(op.prio, op.cat, op.d, func(now units.Time) {
			log.completions = append(log.completions, fmt.Sprintf("%d@%d", i, now))
			for _, c := range children[i] {
				submit(c)
			}
		})
	}
	for i, op := range ops {
		if op.parent < 0 {
			eng.At(op.at, func(units.Time) { submit(i) })
		}
	}
	for _, at := range probeAt {
		eng.At(at, func(now units.Time) {
			log.probes = append(log.probes, fmt.Sprintf("%d: %+v q=%d busy=%v", now, s.Stats(), s.QueueLen(), s.busy()))
		})
	}
	eng.RunUntilIdle()
	log.final = s.Stats()
	return log
}

// TestRunQueueMatchesReference runs random Submit/SubmitPair/preempt/
// rotate sequences through Core and the slice-of-pointers reference,
// where a pair is two Submits, and requires identical completion order
// and times, span-hook slices, mid-run snapshots and final accounting.
func TestRunQueueMatchesReference(t *testing.T) {
	var preempts, rotations, completed, pairs uint64
	for i := 0; i < 300; i++ {
		r := rng.New(rng.Derive(0x5eed, uint64(i)))
		var quantum units.Time
		if r.Bool(0.6) {
			quantum = units.Time(r.Intn(25) + 1)
		}
		ops := genOps(r)
		probeAt := make([]units.Time, 8)
		for k := range probeAt {
			probeAt[k] = units.Time(r.Intn(600))
		}

		var logs [2]*schedLog
		for k := range logs {
			eng := sim.NewEngine()
			var spans []string
			hook := func(core int, cat Category, start, end units.Time) {
				spans = append(spans, fmt.Sprintf("%d %v [%d,%d)", core, cat, start, end))
			}
			var s scheduler
			if k == 0 {
				c := New(eng, 4, units.GHz).Core(3)
				c.SetQuantum(quantum)
				c.SetSpanHook(hook)
				s = c
			} else {
				s = &refCore{id: 3, eng: eng, quantum: quantum, spanHook: hook}
			}
			logs[k] = runOps(eng, s, ops, probeAt)
			logs[k].spans = spans
		}
		got, want := logs[0], logs[1]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (quantum %v): Core diverges from reference\n got %+v\nwant %+v", i, quantum, got, want)
		}
		callbacks := len(ops)
		for _, op := range ops {
			if op.pair {
				callbacks--
				pairs++
			}
		}
		if len(got.completions) != callbacks {
			t.Fatalf("seed %d: %d of %d ops completed", i, len(got.completions), callbacks)
		}
		preempts += got.final.Preempts
		rotations += got.final.Rotations
		completed += got.final.Completed
	}
	// The generator must actually exercise the paths under test.
	if preempts == 0 || rotations == 0 || completed == 0 || pairs == 0 {
		t.Fatalf("generator too tame: preempts=%d rotations=%d completed=%d pairs=%d", preempts, rotations, completed, pairs)
	}
}

// TestTaskQueueDeque checks a priority's run queue against a plain
// slice model under random push-back/push-front/pop-front traffic,
// across growth and wrap-around.
func TestTaskQueueDeque(t *testing.T) {
	r := rng.New(rng.Derive(0xdec, 0))
	var q deque.Deque[task]
	var model []units.Time
	for step := 0; step < 20000; step++ {
		switch x := r.Intn(5); {
		case x < 2:
			v := units.Time(step)
			q.PushBack(task{remaining: v})
			model = append(model, v)
		case x < 3:
			v := units.Time(step)
			q.PushFront(task{remaining: v})
			model = append([]units.Time{v}, model...)
		default:
			if len(model) == 0 {
				continue
			}
			if got := q.PopFront().remaining; got != model[0] {
				t.Fatalf("step %d: popped %v, want %v", step, got, model[0])
			}
			model = model[1:]
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: len %d, want %d", step, q.Len(), len(model))
		}
	}
}

// coreLoop is a warmed steady-state workload on one timesliced core:
// two process tasks that rotate against each other, preempted mid-slice
// by a softirq task.
type coreLoop struct {
	eng  *sim.Engine
	c    *Core
	done sim.Event
	irq  sim.Event
}

func newCoreLoop() *coreLoop {
	l := &coreLoop{eng: sim.NewEngine()}
	l.c = New(l.eng, 1, units.GHz).Core(0)
	l.c.SetQuantum(10)
	l.done = func(units.Time) {}
	l.irq = func(units.Time) { l.c.Submit(PrioSoftirq, CatSoftirq, 3, l.done) }
	l.cycle() // warm the run queues and the engine arena
	return l
}

func (l *coreLoop) cycle() {
	l.c.Submit(PrioProcess, CatCompute, 25, l.done)
	l.c.Submit(PrioProcess, CatCompute, 25, l.done)
	l.eng.After(5, l.irq)
	l.eng.RunUntilIdle()
}

func TestCoreSteadyStateAllocFree(t *testing.T) {
	l := newCoreLoop()
	if allocs := testing.AllocsPerRun(100, l.cycle); allocs != 0 {
		t.Errorf("Submit→finish loop allocates %v per cycle, want 0", allocs)
	}
	s := l.c.Stats()
	if s.Preempts == 0 || s.Rotations == 0 {
		t.Fatalf("loop did not exercise preemption and rotation: %+v", s)
	}
}

// BenchmarkCoreSubmit measures one steady-state cycle of coreLoop: two
// process submits that rotate, a softirq preemption, and three
// completions.
func BenchmarkCoreSubmit(b *testing.B) {
	l := newCoreLoop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.cycle()
	}
}
