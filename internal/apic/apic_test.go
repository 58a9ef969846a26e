package apic

import (
	"testing"

	"sais/internal/sim"
	"sais/internal/units"
)

// pickRouter always routes to a fixed core.
type pickRouter struct{ core int }

func (p pickRouter) Route(Vector, int, uint64, []int, units.Time) int { return p.core }
func (p pickRouter) Name() string                                     { return "pick" }

// hintRouter routes to the hint, or core 0.
type hintRouter struct{}

func (hintRouter) Route(_ Vector, hint int, _ uint64, _ []int, _ units.Time) int {
	if hint == NoHint {
		return 0
	}
	return hint
}
func (hintRouter) Name() string { return "hint" }

func newSystem(t *testing.T, n int, latency units.Time) (*sim.Engine, *IOAPIC, []*LocalAPIC) {
	t.Helper()
	eng := sim.NewEngine()
	locals := NewLocalAPICs(eng, n, latency)
	return eng, NewIOAPIC(eng, locals), locals
}

func TestDeliveryWithLatency(t *testing.T) {
	eng, io, locals := newSystem(t, 2, 200)
	io.SetRouter(pickRouter{core: 1})
	var got []struct {
		vec  Vector
		core int
		at   units.Time
	}
	for _, l := range locals {
		l.SetHandler(func(core int, v Vector, now units.Time) {
			got = append(got, struct {
				vec  Vector
				core int
				at   units.Time
			}{v, core, now})
		})
	}
	eng.At(100, func(units.Time) {
		if dest := io.Raise(33, NoHint, 0); dest != 1 {
			t.Errorf("Raise routed to %d, want 1", dest)
		}
	})
	eng.RunUntilIdle()
	if len(got) != 1 || got[0].vec != 33 || got[0].core != 1 || got[0].at != 300 {
		t.Errorf("delivered = %+v", got)
	}
	if locals[1].Accepted() != 1 || locals[0].Accepted() != 0 {
		t.Error("accepted counters wrong")
	}
}

func TestHintRouting(t *testing.T) {
	eng, io, locals := newSystem(t, 4, 0)
	io.SetRouter(hintRouter{})
	counts := make([]int, 4)
	for _, l := range locals {
		l.SetHandler(func(core int, _ Vector, _ units.Time) { counts[core]++ })
	}
	eng.At(0, func(units.Time) {
		io.Raise(1, 2, 0)
		io.Raise(1, 2, 0)
		io.Raise(1, NoHint, 0)
	})
	eng.RunUntilIdle()
	if counts[2] != 2 || counts[0] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestRedirectionTableRestricts(t *testing.T) {
	eng, io, locals := newSystem(t, 4, 0)
	io.SetRouter(hintRouter{})
	io.Program(7, []int{1, 3})
	counts := make([]int, 4)
	for _, l := range locals {
		l.SetHandler(func(core int, _ Vector, _ units.Time) { counts[core]++ })
	}
	eng.At(0, func(units.Time) {
		io.Raise(7, 2, 0) // hint outside allowed set -> misroute fallback
		io.Raise(7, 3, 0) // allowed
	})
	eng.RunUntilIdle()
	if counts[1] != 1 || counts[3] != 1 || counts[2] != 0 {
		t.Errorf("counts = %v, want fallback to core 1 and direct to 3", counts)
	}
	if io.Stats().Misroutes != 1 {
		t.Errorf("misroutes = %d, want 1", io.Stats().Misroutes)
	}
	if io.Stats().Raised != 2 {
		t.Errorf("raised = %d, want 2", io.Stats().Raised)
	}
}

func TestProgramValidatesCores(t *testing.T) {
	_, io, _ := newSystem(t, 2, 0)
	defer func() {
		if recover() == nil {
			t.Error("Program with out-of-range core did not panic")
		}
	}()
	io.Program(1, []int{5})
}

func TestRaiseWithoutRouterPanics(t *testing.T) {
	_, io, _ := newSystem(t, 2, 0)
	defer func() {
		if recover() == nil {
			t.Error("Raise with no router did not panic")
		}
	}()
	io.Raise(1, NoHint, 0)
}

func TestMaskQueuesAndUnmaskFlushes(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLocalAPICs(eng, 1, 0)[0]
	var got []Vector
	l.SetHandler(func(_ int, v Vector, _ units.Time) { got = append(got, v) })
	eng.At(0, func(units.Time) {
		l.Mask()
		l.Accept(1)
		l.Accept(2)
		if l.PendingCount() != 2 {
			t.Errorf("pending = %d, want 2", l.PendingCount())
		}
	})
	eng.At(10, func(units.Time) {
		if len(got) != 0 {
			t.Error("masked APIC delivered interrupts")
		}
		l.Unmask()
		l.Unmask() // idempotent
	})
	eng.RunUntilIdle()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("flushed = %v, want [1 2] in order", got)
	}
	if l.Masked() {
		t.Error("still masked")
	}
}

func TestEmptyLocalsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewIOAPIC with no locals did not panic")
		}
	}()
	NewIOAPIC(sim.NewEngine(), nil)
}

func TestNegativeLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative latency did not panic")
		}
	}()
	NewLocalAPICs(sim.NewEngine(), 1, -1)
}

// TestInFlightDeliveryOrder accepts interleaved vectors whose delivery
// windows overlap; each delivery must carry the vector accepted in the
// matching position, at acceptance time plus the latency.
func TestInFlightDeliveryOrder(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLocalAPICs(eng, 1, 100)[0]
	type delivery struct {
		vec Vector
		at  units.Time
	}
	var got, want []delivery
	l.SetHandler(func(_ int, v Vector, now units.Time) { got = append(got, delivery{v, now}) })
	for i := 0; i < 40; i++ {
		at := units.Time(i * 7)
		vec := Vector(i*13 + 1)
		want = append(want, delivery{vec, at + 100})
		eng.At(at, func(units.Time) { l.Accept(vec) })
	}
	eng.RunUntilIdle()
	if len(got) != len(want) {
		t.Fatalf("delivered %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// rrRouter spreads unhinted interrupts round-robin over the allowed set
// and honours hints.
type rrRouter struct{ next int }

func (r *rrRouter) Route(_ Vector, hint int, _ uint64, allowed []int, _ units.Time) int {
	if hint != NoHint {
		return hint
	}
	r.next++
	return allowed[r.next%len(allowed)]
}
func (r *rrRouter) Name() string { return "rr" }

// raiseLoop is a warmed steady-state interrupt workload: an I/O APIC
// over four local APICs with a delivery latency, raising a burst of
// hinted and unhinted vectors and running them to delivery.
type raiseLoop struct {
	eng    *sim.Engine
	io     *IOAPIC
	locals []*LocalAPIC
	raised int
}

func newRaiseLoop() *raiseLoop {
	l := &raiseLoop{eng: sim.NewEngine()}
	l.locals = NewLocalAPICs(l.eng, 4, 50)
	for _, lapic := range l.locals {
		lapic.SetHandler(func(int, Vector, units.Time) {})
	}
	l.io = NewIOAPIC(l.eng, l.locals)
	l.io.SetRouter(&rrRouter{})
	l.io.Program(7, []int{1, 3})
	l.unmasked() // warm the in-flight rings and the engine arena
	l.masked()
	return l
}

func (l *raiseLoop) burst() {
	// Even interrupts are hinted on the any-core vector 32; odd ones are
	// unhinted on vector 7, whose redirection entry allows cores 1 and 3.
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			l.io.Raise(32, i%len(l.locals), uint64(i))
		} else {
			l.io.Raise(7, NoHint, uint64(i))
		}
		l.raised++
	}
}

func (l *raiseLoop) unmasked() {
	l.burst()
	l.eng.RunUntilIdle()
}

func (l *raiseLoop) masked() {
	for _, lapic := range l.locals {
		lapic.Mask()
	}
	l.burst()
	for _, lapic := range l.locals {
		lapic.Unmask()
	}
	l.eng.RunUntilIdle()
}

func (l *raiseLoop) accepted() int {
	n := 0
	for _, lapic := range l.locals {
		n += int(lapic.Accepted())
	}
	return n
}

func TestRaiseSteadyStateAllocFree(t *testing.T) {
	l := newRaiseLoop()
	for _, tc := range []struct {
		name string
		run  func()
	}{{"unmasked", l.unmasked}, {"mask-unmask", l.masked}} {
		if allocs := testing.AllocsPerRun(100, tc.run); allocs != 0 {
			t.Errorf("%s: Raise→delivery allocates %v per burst, want 0", tc.name, allocs)
		}
	}
	if got := l.accepted(); got != l.raised {
		t.Fatalf("delivered %d of %d raised interrupts", got, l.raised)
	}
}

// BenchmarkIOAPICRaise measures the steer-and-deliver path: one Raise
// through a policy and the redirection table, then its delivery to the
// destination core's handler.
func BenchmarkIOAPICRaise(b *testing.B) {
	l := newRaiseLoop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hint := NoHint
		if i%2 == 0 {
			hint = i % len(l.locals)
		}
		l.io.Raise(32, hint, uint64(i))
		l.eng.RunUntilIdle()
	}
}
