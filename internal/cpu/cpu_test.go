package cpu

import (
	"testing"
	"testing/quick"

	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/units"
)

func newCore(t *testing.T) (*sim.Engine, *Core) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, New(eng, 1, 2700*units.MHz).Core(0)
}

func TestFIFOWithinPriority(t *testing.T) {
	eng, c := newCore(t)
	var done []units.Time
	eng.At(0, func(units.Time) {
		c.Submit(PrioProcess, CatCompute, 10, func(now units.Time) { done = append(done, now) })
		c.Submit(PrioProcess, CatCompute, 5, func(now units.Time) { done = append(done, now) })
	})
	eng.RunUntilIdle()
	if len(done) != 2 || done[0] != 10 || done[1] != 15 {
		t.Errorf("done = %v, want [10 15]", done)
	}
}

func TestSoftirqPreemptsProcess(t *testing.T) {
	eng, c := newCore(t)
	var procDone, irqDone units.Time
	eng.At(0, func(units.Time) {
		c.Submit(PrioProcess, CatCompute, 100, func(now units.Time) { procDone = now })
	})
	eng.At(30, func(units.Time) {
		c.Submit(PrioSoftirq, CatSoftirq, 10, func(now units.Time) { irqDone = now })
	})
	eng.RunUntilIdle()
	if irqDone != 40 {
		t.Errorf("softirq done at %v, want 40 (immediate preemption)", irqDone)
	}
	if procDone != 110 {
		t.Errorf("process done at %v, want 110 (resumed with 70 left)", procDone)
	}
	if c.Stats().Preempts != 1 {
		t.Errorf("preempts = %d, want 1", c.Stats().Preempts)
	}
}

func TestSoftirqDoesNotPreemptSoftirq(t *testing.T) {
	eng, c := newCore(t)
	var order []int
	eng.At(0, func(units.Time) {
		c.Submit(PrioSoftirq, CatSoftirq, 50, func(units.Time) { order = append(order, 1) })
	})
	eng.At(10, func(units.Time) {
		c.Submit(PrioSoftirq, CatSoftirq, 5, func(units.Time) { order = append(order, 2) })
	})
	eng.RunUntilIdle()
	if len(order) != 2 || order[0] != 1 {
		t.Errorf("order = %v: same-priority work must not preempt", order)
	}
	if c.Stats().Preempts != 0 {
		t.Errorf("preempts = %d, want 0", c.Stats().Preempts)
	}
}

func TestBusyAccountingExact(t *testing.T) {
	eng, c := newCore(t)
	eng.At(0, func(units.Time) {
		c.Submit(PrioProcess, CatCompute, 100, nil)
	})
	eng.At(30, func(units.Time) {
		c.Submit(PrioSoftirq, CatSoftirq, 20, nil)
	})
	eng.RunUntilIdle()
	s := c.Stats()
	if s.Busy != 120 {
		t.Errorf("busy = %v, want 120", s.Busy)
	}
	if s.ByCategory[CatCompute] != 100 || s.ByCategory[CatSoftirq] != 20 {
		t.Errorf("categories = %v", s.ByCategory)
	}
	// Idle gap then more work: busy should not count the gap.
	eng.At(eng.Now()+1000, func(units.Time) {
		c.Submit(PrioProcess, CatSyscall, 7, nil)
	})
	eng.RunUntilIdle()
	if got := c.Stats().Busy; got != 127 {
		t.Errorf("busy after idle gap = %v, want 127", got)
	}
}

func TestMidRunStatsChargeInFlight(t *testing.T) {
	eng, c := newCore(t)
	eng.At(0, func(units.Time) { c.Submit(PrioProcess, CatCompute, 100, nil) })
	eng.At(40, func(units.Time) {
		if got := c.Stats().Busy; got != 40 {
			t.Errorf("mid-run busy = %v, want 40", got)
		}
	})
	eng.RunUntilIdle()
}

func TestZeroDurationWork(t *testing.T) {
	eng, c := newCore(t)
	fired := false
	eng.At(5, func(units.Time) {
		c.Submit(PrioProcess, CatOther, 0, func(now units.Time) {
			fired = true
			if now != 5 {
				t.Errorf("zero work completed at %v, want 5", now)
			}
		})
	})
	eng.RunUntilIdle()
	if !fired {
		t.Error("zero-duration work never completed")
	}
}

func TestBusyAndQueueLen(t *testing.T) {
	eng, c := newCore(t)
	eng.At(0, func(units.Time) {
		if c.busy() {
			t.Error("idle core reported busy")
		}
		c.Submit(PrioProcess, CatCompute, 10, nil)
		c.Submit(PrioProcess, CatCompute, 10, nil)
		if !c.busy() {
			t.Error("core with work reported idle")
		}
		if c.QueueLen() != 1 {
			t.Errorf("queue = %d, want 1 (one running, one waiting)", c.QueueLen())
		}
	})
	eng.RunUntilIdle()
	if c.busy() {
		t.Error("drained core reported busy")
	}
}

func TestInvalidSubmits(t *testing.T) {
	eng, c := newCore(t)
	_ = eng
	for _, f := range []func(){
		func() { c.Submit(Priority(-1), CatOther, 1, nil) },
		func() { c.Submit(numPriorities, CatOther, 1, nil) },
		func() { c.Submit(PrioProcess, CatOther, -1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCPUAggregates(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, 4, 2*units.GHz)
	// Core 2 is timesliced: two 25 ns tasks at a 10 ns quantum rotate
	// four times (A, B, A, B) before the 5 ns tails run out.
	p.Core(2).SetQuantum(10)
	eng.At(0, func(units.Time) {
		p.Core(0).Submit(PrioProcess, CatCompute, 100, nil)
		p.Core(1).Submit(PrioProcess, CatCompute, 300, nil)
		p.Core(2).Submit(PrioProcess, CatCompute, 25, nil)
		p.Core(2).Submit(PrioProcess, CatCompute, 25, nil)
	})
	eng.RunUntilIdle()
	total := p.TotalStats()
	if total.Busy != 450 {
		t.Errorf("total busy = %v, want 450", total.Busy)
	}
	if total.Completed != 4 {
		t.Errorf("total completed = %d, want 4", total.Completed)
	}
	if r := p.Core(2).Stats().Rotations; r != 4 || total.Rotations != r {
		t.Errorf("total rotations = %d, core 2 rotations = %d, want 4 and 4", total.Rotations, r)
	}
	if got := p.UnhaltedCycles(); got != 900 { // 450ns at 2GHz
		t.Errorf("unhalted = %d cycles, want 900", got)
	}
}

// Property: total busy time equals the sum of submitted durations once
// everything drains, regardless of priorities and arrival pattern, and
// never exceeds wall-clock time.
func TestConservationOfWork(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		eng := sim.NewEngine()
		c := New(eng, 1, units.GHz).Core(0)
		if r.Bool(0.5) {
			c.SetQuantum(units.Time(r.Intn(20) + 1))
		}
		var submitted units.Time
		n := r.Intn(40) + 1
		for i := 0; i < n; i++ {
			at := units.Time(r.Intn(500))
			d := units.Time(r.Intn(50))
			prio := Priority(r.Intn(int(numPriorities)))
			cat := Category(r.Intn(int(numCategories)))
			submitted += d
			eng.At(at, func(units.Time) { c.Submit(prio, cat, d, nil) })
		}
		eng.RunUntilIdle()
		s := c.Stats()
		if s.Busy != submitted {
			return false
		}
		var byCat units.Time
		for _, v := range s.ByCategory {
			byCat += v
		}
		return byCat == s.Busy && s.Completed == uint64(n) && s.Busy <= eng.Now()
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

func TestNewValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(sim.NewEngine(), 0, units.GHz) },
		func() { New(sim.NewEngine(), 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCategoryString(t *testing.T) {
	if CatMigration.String() != "migration" {
		t.Errorf("CatMigration = %q", CatMigration.String())
	}
	if Category(99).String() == "" {
		t.Error("unknown category should render")
	}
}

func TestTimesliceRotation(t *testing.T) {
	eng, c := newCore(t)
	c.SetQuantum(10)
	var done []int
	eng.At(0, func(units.Time) {
		c.Submit(PrioProcess, CatCompute, 25, func(units.Time) { done = append(done, 1) })
		c.Submit(PrioProcess, CatCompute, 5, func(units.Time) { done = append(done, 2) })
	})
	eng.RunUntilIdle()
	// Task 1 runs 10, rotates; task 2 runs 5 and finishes first.
	if len(done) != 2 || done[0] != 2 || done[1] != 1 {
		t.Errorf("completion order = %v, want short task first under timeslicing", done)
	}
	if c.Stats().Rotations == 0 {
		t.Error("no rotations counted")
	}
	if got := c.Stats().Busy; got != 30 {
		t.Errorf("busy = %v, want 30 (work conserved)", got)
	}
}

func TestNoRotationWhenAlone(t *testing.T) {
	eng, c := newCore(t)
	c.SetQuantum(10)
	var doneAt units.Time
	eng.At(0, func(units.Time) {
		c.Submit(PrioProcess, CatCompute, 100, func(now units.Time) { doneAt = now })
	})
	eng.RunUntilIdle()
	if doneAt != 100 {
		t.Errorf("lone task finished at %v, want 100 (no pointless slicing)", doneAt)
	}
	if c.Stats().Rotations != 0 {
		t.Errorf("rotations = %d for a lone task", c.Stats().Rotations)
	}
}

func TestSoftirqNotTimesliced(t *testing.T) {
	eng, c := newCore(t)
	c.SetQuantum(10)
	var order []int
	eng.At(0, func(units.Time) {
		c.Submit(PrioSoftirq, CatSoftirq, 50, func(units.Time) { order = append(order, 1) })
		c.Submit(PrioSoftirq, CatSoftirq, 5, func(units.Time) { order = append(order, 2) })
	})
	eng.RunUntilIdle()
	if len(order) != 2 || order[0] != 1 {
		t.Errorf("softirq order = %v; softirq work must run to completion", order)
	}
}

func TestNegativeQuantumPanics(t *testing.T) {
	_, c := newCore(t)
	defer func() {
		if recover() == nil {
			t.Error("negative quantum accepted")
		}
	}()
	c.SetQuantum(-1)
}

func TestTimesliceFairness(t *testing.T) {
	// Two long tasks share the core; at any mid-point their consumed
	// time must be within one quantum of each other.
	eng, c := newCore(t)
	c.SetQuantum(10)
	var doneA, doneB units.Time
	eng.At(0, func(units.Time) {
		c.Submit(PrioProcess, CatCompute, 100, func(now units.Time) { doneA = now })
		c.Submit(PrioProcess, CatCompute, 100, func(now units.Time) { doneB = now })
	})
	eng.RunUntilIdle()
	if doneB-doneA > 10 {
		t.Errorf("completions %v and %v not interleaved fairly", doneA, doneB)
	}
}
