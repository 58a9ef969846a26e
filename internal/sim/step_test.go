package sim

import (
	"testing"

	"sais/internal/units"
)

// step fires the single earliest live event and reports whether there
// was one: the unit of work the event-by-event tests and the EngineHot
// benchmarks drive.
func (e *Engine) step() bool {
	fromFifo, ok := e.next()
	if !ok {
		return false
	}
	e.fire(fromFifo)
	return true
}

// TestStepPrimitives drives an engine instant by instant through the
// peek/RunBefore pair the shard executor uses and checks the observed
// schedule matches Run's.
func TestStepPrimitives(t *testing.T) {
	e := NewEngine()
	var got []units.Time
	for _, at := range []units.Time{30, 10, 20, 10} {
		at := at
		e.At(at, func(now units.Time) { got = append(got, now) })
	}
	instants := []struct {
		at units.Time
		n  int
	}{{10, 2}, {20, 1}, {30, 1}}
	for i, w := range instants {
		at, ok := e.PeekNextEventTime()
		if !ok || at != w.at {
			t.Fatalf("peek %d: got (%v, %v), want (%v, true)", i, at, ok, w.at)
		}
		if n := e.RunBefore(at + 1); n != w.n {
			t.Fatalf("RunBefore(%v) fired %d events, want %d", at+1, n, w.n)
		}
	}
	if _, ok := e.PeekNextEventTime(); ok {
		t.Fatal("PeekNextEventTime found an event after drain")
	}
	if n := e.RunBefore(units.Forever); n != 0 {
		t.Fatalf("RunBefore fired %d events on an empty queue", n)
	}
	want := []units.Time{10, 10, 20, 30}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

// TestPeekSkipsCancelled checks peek sees through dead queue fronts.
func TestPeekSkipsCancelled(t *testing.T) {
	e := NewEngine()
	tm := e.At(5, func(units.Time) {})
	e.At(9, func(units.Time) {})
	tm.Cancel()
	if at, ok := e.PeekNextEventTime(); !ok || at != 9 {
		t.Fatalf("peek after cancel: got (%v, %v), want (9, true)", at, ok)
	}
}

// TestRunBefore checks the strict-horizon contract: events below the
// horizon fire, the event at the horizon does not, and the clock stays
// at the last fired event.
func TestRunBefore(t *testing.T) {
	e := NewEngine()
	var fired []units.Time
	for _, at := range []units.Time{10, 20, 30} {
		e.At(at, func(now units.Time) { fired = append(fired, now) })
	}
	if n := e.RunBefore(30); n != 2 {
		t.Fatalf("RunBefore(30) executed %d events, want 2", n)
	}
	if e.Now() != 20 {
		t.Fatalf("clock at %v after RunBefore(30), want 20", e.Now())
	}
	if n := e.RunBefore(31); n != 1 {
		t.Fatalf("RunBefore(31) executed %d events, want 1", n)
	}
	if len(fired) != 3 || fired[2] != 30 {
		t.Fatalf("fired %v, want [10 20 30]", fired)
	}
}

// TestAtOriginOrdersBySource checks that same-instant origin-tagged
// events fire in origin order regardless of scheduling order, and that
// untagged fifo events at the same instant precede them.
func TestAtOriginOrdersBySource(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(10, func(units.Time) {
		// All scheduled at schedAt=10 for at=10, in descending origin
		// order; they must fire ascending.
		e.AtOrigin(10, 7, func(units.Time) { order = append(order, "o7") })
		e.AtOrigin(10, 3, func(units.Time) { order = append(order, "o3") })
		e.Immediately(func(units.Time) { order = append(order, "local") })
	})
	e.RunUntilIdle()
	want := [...]string{"local", "o3", "o7"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestScheduleRemoteMatchesLocal checks the composition property the
// sharded executor relies on: an event injected with ScheduleRemote
// sorts exactly where the equivalent AtOrigin call on a shared engine
// would have put it.
func TestScheduleRemoteMatchesLocal(t *testing.T) {
	run := func(inject func(e *Engine, log *[]string)) []string {
		e := NewEngine()
		var log []string
		// A local event scheduled at t=0 for t=50 (schedAt 0).
		e.At(50, func(units.Time) { log = append(log, "local50") })
		e.At(20, func(units.Time) {
			// Scheduled at t=20 for t=50 with origin 4.
			e.AtOrigin(50, 4, func(units.Time) { log = append(log, "o4") })
		})
		inject(e, &log)
		e.RunUntilIdle()
		return log
	}
	// Variant A: the origin-9 delivery scheduled locally at t=20.
	a := run(func(e *Engine, log *[]string) {
		e.At(20, func(units.Time) {
			e.AtOrigin(50, 9, func(units.Time) { *log = append(*log, "o9") })
		})
	})
	// Variant B: the same delivery injected from "another shard" at
	// t=30 carrying its true schedAt=20.
	b := run(func(e *Engine, log *[]string) {
		e.At(30, func(units.Time) {
			e.ScheduleRemote(50, 20, 9, func(units.Time) { *log = append(*log, "o9") })
		})
	})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("local %v vs remote %v diverge", a, b)
		}
	}
	want := [...]string{"local50", "o4", "o9"}
	for i, w := range want {
		if a[i] != w {
			t.Fatalf("order %v, want %v", a, want)
		}
	}
}

// TestScheduleRemotePanics checks the causality and origin guards.
func TestScheduleRemotePanics(t *testing.T) {
	for name, fn := range map[string]func(e *Engine){
		"zero origin":   func(e *Engine) { e.AtOrigin(10, 0, func(units.Time) {}) },
		"schedAt>at":    func(e *Engine) { e.ScheduleRemote(10, 11, 1, func(units.Time) {}) },
		"remote origin": func(e *Engine) { e.ScheduleRemote(10, 5, 0, func(units.Time) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn(NewEngine())
		}()
	}
}
