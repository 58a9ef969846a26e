package cpu

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"sais/internal/sim"
	"sais/internal/units"
)

// TestTaskSize: narrow priority and category fields keep a queued task,
// pair phases included, at 32 bytes.
func TestTaskSize(t *testing.T) {
	if got := unsafe.Sizeof(task{}); got != 32 {
		t.Errorf("task is %d bytes, want 32", got)
	}
}

// pairCase is one scenario on a single core: setup submits the
// surrounding work at time 0, the pair (or its two Submits) arrives at
// at, and probes read Stats and QueueLen at the listed instants.
type pairCase struct {
	name   string
	setup  func(c *Core)
	at     units.Time
	cat1   Category
	d1     units.Time
	cat2   Category
	d2     units.Time
	probes []units.Time
}

// pairTrace is what one run of a pairCase shows: the span-hook slices,
// the probe snapshots and the final accounting.
type pairTrace struct {
	spans  []string
	probes []string
	final  CoreStats
}

// runPairCase runs pc with SubmitPair when paired, else with two
// back-to-back Submits carrying nil callbacks.
func runPairCase(pc pairCase, paired bool) pairTrace {
	eng := sim.NewEngine()
	c := New(eng, 2, units.GHz).Core(1)
	var tr pairTrace
	c.SetSpanHook(func(core int, cat Category, start, end units.Time) {
		tr.spans = append(tr.spans, fmt.Sprintf("%d %v [%d,%d)", core, cat, start, end))
	})
	if pc.setup != nil {
		eng.At(0, func(units.Time) { pc.setup(c) })
	}
	eng.At(pc.at, func(units.Time) {
		if paired {
			c.SubmitPair(PrioSoftirq, pc.cat1, pc.d1, pc.cat2, pc.d2)
			return
		}
		c.Submit(PrioSoftirq, pc.cat1, pc.d1, nil)
		c.Submit(PrioSoftirq, pc.cat2, pc.d2, nil)
	})
	for _, at := range pc.probes {
		eng.At(at, func(now units.Time) {
			tr.probes = append(tr.probes, fmt.Sprintf("%d: %+v q=%d", now, c.Stats(), c.QueueLen()))
		})
	}
	eng.RunUntilIdle()
	tr.final = c.Stats()
	return tr
}

// TestSubmitPairMatchesTwoSubmits: a pair charges the same busy time
// per category, the same spans, preemptions and completions, and shows
// the same mid-run Stats and QueueLen as two back-to-back Submits.
func TestSubmitPairMatchesTwoSubmits(t *testing.T) {
	cases := []pairCase{
		{name: "d1=0", at: 10, cat1: CatIRQ, d1: 0, cat2: CatSoftirq, d2: 30,
			probes: []units.Time{10, 20, 40}},
		{name: "d2=0", at: 10, cat1: CatIRQ, d1: 30, cat2: CatSoftirq, d2: 0,
			probes: []units.Time{10, 25, 40}},
		{name: "both zero", at: 10, cat1: CatIRQ, d1: 0, cat2: CatSoftirq, d2: 0,
			probes: []units.Time{10, 11}},
		{name: "preempts process work",
			setup: func(c *Core) { c.Submit(PrioProcess, CatCompute, 100, nil) },
			at:    30, cat1: CatIRQ, d1: 4, cat2: CatSoftirq, d2: 11,
			probes: []units.Time{31, 34, 36, 45, 50}},
		{name: "queues behind softirq",
			setup: func(c *Core) { c.Submit(PrioSoftirq, CatSoftirq, 50, nil) },
			at:    10, cat1: CatIRQ, d1: 7, cat2: CatSoftirq, d2: 9,
			probes: []units.Time{10, 50, 55, 57, 60, 66}},
		{name: "stats mid-pair",
			setup: func(c *Core) { c.Submit(PrioProcess, CatCompute, 20, nil) },
			at:    5, cat1: CatIRQ, d1: 12, cat2: CatSoftirq, d2: 8,
			probes: []units.Time{5, 6, 16, 17, 18, 24, 25, 26, 40}},
	}
	for _, pc := range cases {
		t.Run(pc.name, func(t *testing.T) {
			got, want := runPairCase(pc, true), runPairCase(pc, false)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("SubmitPair diverges from two Submits\n got %+v\nwant %+v", got, want)
			}
		})
	}
	preempted := runPairCase(cases[3], true).final
	if preempted.Preempts != 1 || preempted.ByCategory[CatIRQ] != 4 || preempted.ByCategory[CatSoftirq] != 11 {
		t.Errorf("preempting pair: %+v", preempted)
	}
}

// TestSubmitPairRejectsBadInput: a pair validates both phases.
func TestSubmitPairRejectsBadInput(t *testing.T) {
	for _, f := range []func(c *Core){
		func(c *Core) { c.SubmitPair(PrioSoftirq, CatIRQ, -1, CatSoftirq, 1) },
		func(c *Core) { c.SubmitPair(PrioSoftirq, CatIRQ, 1, CatSoftirq, -1) },
		func(c *Core) { c.SubmitPair(numPriorities, CatIRQ, 1, CatSoftirq, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid pair accepted")
				}
			}()
			_, c := newCore(t)
			f(c)
		}()
	}
}

// pairLoop is a warmed steady-state workload on one core: a process
// task preempted by two softirq pairs, as the hybrid tick submits them.
type pairLoop struct {
	eng  *sim.Engine
	c    *Core
	done sim.Event
	irq  sim.Event
}

func newPairLoop() *pairLoop {
	l := &pairLoop{eng: sim.NewEngine()}
	l.c = New(l.eng, 1, units.GHz).Core(0)
	l.done = func(units.Time) {}
	l.irq = func(units.Time) {
		l.c.SubmitPair(PrioSoftirq, CatIRQ, 2, CatSoftirq, 3)
		l.c.SubmitPair(PrioSoftirq, CatIRQ, 1, CatSoftirq, 4)
	}
	l.cycle() // warm the run queues and the engine arena
	return l
}

func (l *pairLoop) cycle() {
	l.c.Submit(PrioProcess, CatCompute, 25, l.done)
	l.eng.After(5, l.irq)
	l.eng.RunUntilIdle()
}

func TestSubmitPairAllocFree(t *testing.T) {
	l := newPairLoop()
	if allocs := testing.AllocsPerRun(100, l.cycle); allocs != 0 {
		t.Errorf("SubmitPair loop allocates %v per cycle, want 0", allocs)
	}
	if s := l.c.Stats(); s.Preempts == 0 || s.ByCategory[CatIRQ] == 0 {
		t.Fatalf("loop did not exercise a preempting pair: %+v", s)
	}
}

// BenchmarkCoreSubmitPair measures one steady-state cycle of pairLoop:
// a process submit, two softirq pairs that preempt it, and three
// completion events.
func BenchmarkCoreSubmitPair(b *testing.B) {
	l := newPairLoop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.cycle()
	}
}
