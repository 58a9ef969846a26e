package sim

// Tests for the arena engine's safety properties: generation-checked
// handles across slot reuse, Live vs Pending accounting, cancellation
// compaction, the mid-run stop-poll fix, and a differential test that
// drives the engine against a brute-force reference queue on fuzzed
// schedule/cancel/step mixes.

import (
	"testing"

	"sais/internal/rng"
	"sais/internal/units"
)

// TestStaleGenerationHandle pins the core arena-safety property: a
// handle kept across its event's firing must not be able to cancel the
// slot's next tenant.
func TestStaleGenerationHandle(t *testing.T) {
	e := NewEngine()
	old := e.At(1, func(units.Time) {})
	e.RunUntilIdle()

	// The freed slot is recycled for the next schedule (LIFO free list).
	fired := false
	fresh := e.At(2, func(units.Time) { fired = true })
	if old.idx != fresh.idx {
		t.Fatalf("free list did not recycle slot %d (got %d); test assumption broken", old.idx, fresh.idx)
	}
	if old.Pending() {
		t.Error("stale handle reports Pending on a reused slot")
	}
	if old.Cancel() {
		t.Error("stale handle cancelled the slot's new tenant")
	}
	if !fresh.Pending() {
		t.Error("fresh handle lost pending state after stale Cancel")
	}
	e.RunUntilIdle()
	if !fired {
		t.Error("new tenant did not fire")
	}
}

func TestZeroTimerIsInert(t *testing.T) {
	var tm Timer
	if tm.Pending() {
		t.Error("zero Timer reports Pending")
	}
	if tm.Cancel() {
		t.Error("zero Timer Cancel reported true")
	}
}

func TestLiveExcludesCancelled(t *testing.T) {
	e := NewEngine()
	timers := make([]Timer, 10)
	for i := range timers {
		timers[i] = e.At(units.Time(i+1), func(units.Time) {})
	}
	for i := 0; i < 4; i++ {
		timers[i].Cancel()
	}
	if e.Pending() != 10 {
		t.Errorf("Pending = %d, want 10 (includes cancelled)", e.Pending())
	}
	if e.Live() != 6 {
		t.Errorf("Live = %d, want 6", e.Live())
	}
	e.RunUntilIdle()
	if e.Live() != 0 || e.Pending() != 0 {
		t.Errorf("after drain Live=%d Pending=%d, want 0/0", e.Live(), e.Pending())
	}
}

// TestCompactionReapsCancelled checks that bulk cancellation shrinks
// the queue instead of leaving corpses until their nominal expiry.
func TestCompactionReapsCancelled(t *testing.T) {
	e := NewEngine()
	n := 4 * compactMin
	timers := make([]Timer, n)
	for i := range timers {
		timers[i] = e.At(units.Time(i+1), func(units.Time) {})
	}
	for i := 0; i < n; i++ {
		if i%4 != 0 { // cancel 3 of every 4 → dead outnumber live
			timers[i].Cancel()
		}
	}
	// Without compaction Pending would still be n; the policy guarantees
	// dead items never exceed half the queue by more than the floor.
	if dead := e.Pending() - e.Live(); dead > e.Live()+compactMin {
		t.Errorf("dead = %d with %d live after bulk cancel; compaction did not run", dead, e.Live())
	}
	if e.Pending() > n/2 {
		t.Errorf("Pending = %d after bulk cancel, want ≤ %d (compacted)", e.Pending(), n/2)
	}
	if e.Live() != n/4 {
		t.Errorf("Live = %d, want %d", e.Live(), n/4)
	}
	// Order must survive compaction's re-heapify.
	var last units.Time
	fired := 0
	for e.step() {
		if e.Now() < last {
			t.Fatalf("post-compaction order violated: %v after %v", e.Now(), last)
		}
		last = e.Now()
		fired++
	}
	if fired != n/4 {
		t.Errorf("fired %d events, want %d", fired, n/4)
	}
}

// TestSetStopMidRunPollsImmediately pins the stop-poll fix: a condition
// installed from inside an event must be polled at the next loop
// iteration, not up to stopPollInterval events later.
func TestSetStopMidRunPollsImmediately(t *testing.T) {
	e := NewEngine()
	var fired int
	var chain Event
	chain = func(units.Time) {
		fired++
		e.After(1, chain)
		if fired == 3 {
			e.SetStop(func() bool { return true })
		}
	}
	e.At(0, chain)
	e.Run(units.Forever)
	if !e.Stopped() {
		t.Fatal("run loop did not stop")
	}
	if fired != 3 {
		t.Errorf("fired = %d events; condition installed after event 3 must stop the loop before event 4", fired)
	}
}

// refQueue is a brute-force reference for the differential test: a flat
// slice popped by linear min-scan over (at, seq).
type refItem struct {
	at   units.Time
	seq  uint64
	id   int
	dead bool
}

type refQueue struct {
	items []refItem
	seq   uint64
}

func (q *refQueue) add(at units.Time, id int) int {
	q.items = append(q.items, refItem{at: at, seq: q.seq, id: id})
	q.seq++
	return len(q.items) - 1
}

func (q *refQueue) popMin() (refItem, bool) {
	best := -1
	for i, it := range q.items {
		if it.dead {
			continue
		}
		if best < 0 || it.at < q.items[best].at ||
			(it.at == q.items[best].at && it.seq < q.items[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return refItem{}, false
	}
	it := q.items[best]
	q.items[best].dead = true
	return it, true
}

// TestDifferentialAgainstReference drives random schedule / cancel /
// step mixes (including same-instant schedules from inside callbacks,
// which land on the FIFO fast path) through the engine and the
// reference queue, asserting the fire sequences are identical.
func TestDifferentialAgainstReference(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		r := rng.New(seed)
		e := NewEngine()
		ref := &refQueue{}
		var live []Timer
		var liveRef []int
		nextID := 0

		var check func(id int) Event
		check = func(id int) Event {
			return func(now units.Time) {
				exp, ok := ref.popMin()
				if !ok {
					t.Fatalf("seed %d: engine fired id %d, reference empty", seed, id)
				}
				if exp.id != id || exp.at != now {
					t.Fatalf("seed %d: engine fired (id=%d at=%v), reference expects (id=%d at=%v)",
						seed, id, now, exp.id, exp.at)
				}
				// Sometimes chain a same-instant child — the FIFO path.
				if r.Intn(4) == 0 {
					cid := nextID
					nextID++
					e.Immediately(check(cid))
					ref.add(now, cid)
				}
			}
		}

		for op := 0; op < 400; op++ {
			switch r.Intn(6) {
			case 0, 1, 2: // schedule
				at := e.Now() + units.Time(r.Intn(20))
				id := nextID
				nextID++
				tm := e.At(at, check(id))
				ri := ref.add(at, id)
				live = append(live, tm)
				liveRef = append(liveRef, ri)
			case 3: // cancel a random timer (possibly already fired)
				if len(live) > 0 {
					k := r.Intn(len(live))
					if live[k].Cancel() {
						ref.items[liveRef[k]].dead = true
					}
					live = append(live[:k], live[k+1:]...)
					liveRef = append(liveRef[:k], liveRef[k+1:]...)
				}
			default: // step
				e.step()
			}
		}
		// Drain; every remaining fire is checked inside the callbacks.
		e.RunUntilIdle()
		if _, ok := ref.popMin(); ok {
			t.Fatalf("seed %d: reference has live events after engine drained", seed)
		}
	}
}

// FuzzEngineOrder asserts that for arbitrary schedule times and cancel
// picks, the engine's pop order equals a stable sort by (at, seq).
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{0, 0, 0, 0, 255, 255})
	f.Add([]byte{7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			t.Skip()
		}
		e := NewEngine()
		n := len(data)
		times := make([]units.Time, n)
		var got []int
		timers := make([]Timer, n)
		for i, b := range data {
			times[i] = units.Time(b % 32) // dense: many ties
			i := i
			timers[i] = e.At(times[i], func(units.Time) { got = append(got, i) })
		}
		// Cancel a data-dependent subset.
		cancelled := make([]bool, n)
		for i, b := range data {
			if b>>5 == 7 {
				timers[i].Cancel()
				cancelled[i] = true
			}
		}
		e.RunUntilIdle()
		want := 0
		for i := range cancelled {
			if !cancelled[i] {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("fired %d events, want %d", len(got), want)
		}
		for k := 1; k < len(got); k++ {
			a, b := got[k-1], got[k]
			if times[a] > times[b] || (times[a] == times[b] && a > b) {
				t.Fatalf("pop order violates (at, seq): event %d (t=%v) before %d (t=%v)",
					a, times[a], b, times[b])
			}
		}
	})
}
