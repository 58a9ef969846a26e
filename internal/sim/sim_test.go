package sim

import (
	"testing"
	"testing/quick"

	"sais/internal/rng"
	"sais/internal/units"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func(units.Time) { order = append(order, 3) })
	e.At(10, func(units.Time) { order = append(order, 1) })
	e.At(20, func(units.Time) { order = append(order, 2) })
	e.RunUntilIdle()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Errorf("final time = %v, want 30", e.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func(units.Time) { order = append(order, i) })
	}
	e.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of submission order: %v", order)
		}
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var hits []units.Time
	e.At(5, func(now units.Time) {
		hits = append(hits, now)
		e.After(7, func(now units.Time) { hits = append(hits, now) })
	})
	e.RunUntilIdle()
	if len(hits) != 2 || hits[0] != 5 || hits[1] != 12 {
		t.Errorf("hits = %v", hits)
	}
}

func TestImmediatelyRunsAtSameInstantAfterPeers(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(10, func(units.Time) {
		order = append(order, "a")
		e.Immediately(func(now units.Time) {
			if now != 10 {
				t.Errorf("Immediately fired at %v, want 10", now)
			}
			order = append(order, "c")
		})
	})
	e.At(10, func(units.Time) { order = append(order, "b") })
	e.RunUntilIdle()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("order = %v", order)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func(units.Time) {})
	e.RunUntilIdle()
	defer func() {
		if recover() == nil {
			t.Error("scheduling into the past did not panic")
		}
	}()
	e.At(50, func(units.Time) {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func(units.Time) {})
}

func TestNilEventPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil event did not panic")
		}
	}()
	e.At(1, nil)
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.At(10, func(units.Time) { fired = true })
	if !tm.Pending() {
		t.Error("timer should be pending before firing")
	}
	if !tm.Cancel() {
		t.Error("first Cancel should report true")
	}
	if tm.Cancel() {
		t.Error("second Cancel should report false")
	}
	e.RunUntilIdle()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine()
	tm := e.At(10, func(units.Time) {})
	e.RunUntilIdle()
	if tm.Pending() {
		t.Error("fired timer still pending")
	}
	if tm.Cancel() {
		t.Error("Cancel after fire should report false")
	}
}

func TestRunDeadline(t *testing.T) {
	e := NewEngine()
	var fired []units.Time
	for _, at := range []units.Time{5, 15, 25} {
		e.At(at, func(now units.Time) { fired = append(fired, now) })
	}
	end := e.Run(20)
	if end != 20 {
		t.Errorf("Run returned %v, want 20", end)
	}
	if len(fired) != 2 {
		t.Errorf("fired %v, want events at 5 and 15 only", fired)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	e.RunUntilIdle()
	if len(fired) != 3 {
		t.Errorf("event at 25 lost after deadline resume: %v", fired)
	}
}

func TestStepEmptyQueue(t *testing.T) {
	e := NewEngine()
	if n := e.RunBefore(units.Forever); n != 0 {
		t.Errorf("RunBefore on empty queue fired %d events", n)
	}
	if now := e.RunUntilIdle(); now != 0 {
		t.Errorf("Run on empty queue advanced the clock to %v", now)
	}
}

// Property: with N randomly-timed events, execution order is a stable
// sort of (time, submission order).
func TestHeapOrderingProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw%200) + 1
		e := NewEngine()
		times := make([]units.Time, n)
		var got []int
		for i := 0; i < n; i++ {
			times[i] = units.Time(r.Intn(50)) // dense: many ties
			i := i
			e.At(times[i], func(units.Time) { got = append(got, i) })
		}
		e.RunUntilIdle()
		if len(got) != n {
			return false
		}
		for k := 1; k < n; k++ {
			a, b := got[k-1], got[k]
			if times[a] > times[b] {
				return false
			}
			if times[a] == times[b] && a > b {
				return false // tie broken against submission order
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(units.Time(i), func(units.Time) {})
	}
	tm := e.At(10, func(units.Time) {})
	tm.Cancel()
	e.RunUntilIdle()
	if e.Fired() != 5 {
		t.Errorf("Fired = %d, want 5 (cancelled events do not count)", e.Fired())
	}
}

func BenchmarkEngine10kEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		r := rng.New(1)
		var chain func(now units.Time)
		count := 0
		chain = func(now units.Time) {
			count++
			if count < 10000 {
				e.After(units.Time(r.Intn(100)+1), chain)
			}
		}
		for j := 0; j < 64; j++ {
			e.At(units.Time(r.Intn(100)), chain)
		}
		e.RunUntilIdle()
	}
}

func TestStopConditionEndsRun(t *testing.T) {
	e := NewEngine()
	var fired int
	var chain func(now units.Time)
	chain = func(now units.Time) {
		fired++
		e.After(1, chain)
	}
	e.At(0, chain)
	stop := false
	e.SetStop(func() bool { return stop })

	e.Run(units.Time(10))
	if e.Stopped() {
		t.Fatal("Stopped() true before the condition fired")
	}
	stop = true
	e.Run(units.Forever)
	if !e.Stopped() {
		t.Fatal("Stopped() false after the condition fired")
	}
	// The self-rescheduling chain never drains, so only the stop
	// condition can have ended the second Run; it is polled on entry,
	// then every stopPollInterval events.
	if got := e.Fired(); got > uint64(fired) {
		t.Errorf("Fired = %d after stop, events observed %d", got, fired)
	}
}

func TestStopConditionPolledAtInterval(t *testing.T) {
	e := NewEngine()
	var fired int
	var chain func(now units.Time)
	chain = func(now units.Time) {
		fired++
		e.After(1, chain)
	}
	e.At(0, chain)
	// Arm the condition to fire once some events have run: the loop
	// must notice within one poll interval, not run forever.
	e.SetStop(func() bool { return fired >= 10 })
	e.Run(units.Forever)
	if !e.Stopped() {
		t.Fatal("run loop did not stop")
	}
	if fired < 10 || fired > 10+stopPollInterval {
		t.Errorf("fired = %d events; want within one poll interval past 10", fired)
	}
}

func TestStopConditionClearedRunsToDeadline(t *testing.T) {
	e := NewEngine()
	e.SetStop(func() bool { return true })
	e.At(5, func(units.Time) {})
	e.Run(units.Forever)
	if !e.Stopped() || e.Fired() != 0 {
		t.Fatalf("armed stop: stopped=%v fired=%d, want immediate stop", e.Stopped(), e.Fired())
	}
	e.SetStop(nil)
	e.RunUntilIdle()
	if e.Stopped() || e.Fired() != 1 {
		t.Errorf("cleared stop: stopped=%v fired=%d, want normal drain", e.Stopped(), e.Fired())
	}
}
