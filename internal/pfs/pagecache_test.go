package pfs

import (
	"testing"
	"testing/quick"

	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/units"
)

func newCache(capacity units.Bytes) (*sim.Engine, *PageCache) {
	eng := sim.NewEngine()
	return eng, NewPageCache(eng, capacity, 256*units.KiB)
}

// fetchAfter returns a fetch function that completes after d.
func fetchAfter(eng *sim.Engine, d units.Time, count *int) func(sim.Event) {
	return func(done sim.Event) {
		*count++
		eng.After(d, done)
	}
}

func TestMissThenHitThenLRU(t *testing.T) {
	eng, pc := newCache(512 * units.KiB) // 2 windows
	fetches := 0
	var readyTimes []units.Time
	get := func(win int64) {
		pc.Get(1, win, func(now units.Time) { readyTimes = append(readyTimes, now) },
			fetchAfter(eng, units.Millisecond, &fetches))
	}
	eng.At(0, func(units.Time) { get(0) })
	eng.At(2*units.Millisecond, func(units.Time) { get(0) }) // hit
	eng.At(3*units.Millisecond, func(units.Time) { get(1) }) // miss, fills
	eng.At(5*units.Millisecond, func(units.Time) { get(2) }) // miss, evicts win 0
	eng.At(7*units.Millisecond, func(units.Time) { get(0) }) // miss again
	eng.RunUntilIdle()
	if fetches != 4 {
		t.Errorf("fetches = %d, want 4 (one hit)", fetches)
	}
	if err := pc.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// The hit at t=2ms must be immediate (same instant).
	if readyTimes[1] != 2*units.Millisecond {
		t.Errorf("hit ready at %v, want 2ms", readyTimes[1])
	}
}

func TestInflightMerging(t *testing.T) {
	eng, pc := newCache(units.MiB)
	fetches := 0
	ready := 0
	eng.At(0, func(units.Time) {
		for i := 0; i < 5; i++ {
			pc.Get(1, 7, func(units.Time) { ready++ }, fetchAfter(eng, units.Millisecond, &fetches))
		}
	})
	eng.RunUntilIdle()
	if fetches != 1 {
		t.Errorf("fetches = %d, want 1 (merged)", fetches)
	}
	if ready != 5 {
		t.Errorf("ready callbacks = %d, want 5", ready)
	}
}

func TestZeroCapacityNeverStores(t *testing.T) {
	eng, pc := newCache(0)
	fetches := 0
	eng.At(0, func(units.Time) {
		pc.Get(1, 0, func(units.Time) {}, fetchAfter(eng, units.Millisecond, &fetches))
	})
	eng.RunUntilIdle()
	eng.At(eng.Now(), func(units.Time) {
		pc.Get(1, 0, func(units.Time) {}, fetchAfter(eng, units.Millisecond, &fetches))
	})
	eng.RunUntilIdle()
	if fetches != 2 {
		t.Errorf("fetches = %d, want 2 (nothing cached)", fetches)
	}
	if pc.used != 0 || pc.head != nil {
		t.Errorf("used=%v with a resident window list", pc.used)
	}
}

func TestWindowsMapping(t *testing.T) {
	_, pc := newCache(units.MiB)
	first, last := pc.Windows(0, 256*units.KiB)
	if first != 0 || last != 0 {
		t.Errorf("exact window = [%d,%d]", first, last)
	}
	first, last = pc.Windows(200*units.KiB, 128*units.KiB)
	if first != 0 || last != 1 {
		t.Errorf("straddling = [%d,%d]", first, last)
	}
	off, size := pc.WindowExtent(3)
	if off != 768*units.KiB || size != 256*units.KiB {
		t.Errorf("extent(3) = %v,%v", off, size)
	}
}

func TestDistinctFilesDistinctWindows(t *testing.T) {
	eng, pc := newCache(units.MiB)
	fetches := 0
	eng.At(0, func(units.Time) {
		pc.Get(1, 0, func(units.Time) {}, fetchAfter(eng, units.Millisecond, &fetches))
		pc.Get(2, 0, func(units.Time) {}, fetchAfter(eng, units.Millisecond, &fetches))
	})
	eng.RunUntilIdle()
	if fetches != 2 {
		t.Errorf("fetches = %d; files must not alias", fetches)
	}
}

// TestPutDuringFill writes a window while a read of it is in flight:
// the window is resident at once (a later Get hits) and the read still
// completes and fires its waiter, leaving one resident window.
func TestPutDuringFill(t *testing.T) {
	eng, pc := newCache(units.MiB)
	fetches, ready := 0, 0
	eng.At(0, func(units.Time) {
		pc.Get(1, 3, func(units.Time) { ready++ }, fetchAfter(eng, units.Millisecond, &fetches))
		pc.Put(1, 3)
		if err := pc.CheckInvariants(); err != nil {
			t.Error(err)
		}
		pc.Get(1, 3, func(units.Time) { ready++ }, fetchAfter(eng, units.Millisecond, &fetches))
	})
	eng.RunUntilIdle()
	if fetches != 1 || ready != 2 {
		t.Errorf("fetches %d ready %d; want 1, 2", fetches, ready)
	}
	if pc.used != pc.window {
		t.Errorf("resident bytes = %v, want one window", pc.used)
	}
	if err := pc.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestWindowKeyBounds checks the packed key refuses a file id or window
// index it cannot represent instead of aliasing another window.
func TestWindowKeyBounds(t *testing.T) {
	if packKey(1<<24-1, 1<<40-1) == packKey(1<<24-2, 1<<40-1) {
		t.Error("distinct windows at the key limits collide")
	}
	for _, k := range []struct {
		file FileID
		win  int64
	}{{1 << 24, 0}, {0, 1 << 40}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("window (file %d, win %d) was packed", k.file, k.win)
				}
			}()
			packKey(k.file, k.win)
		}()
	}
}

func TestBadWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero window did not panic")
		}
	}()
	NewPageCache(sim.NewEngine(), units.MiB, 0)
}

// Property: under random Get sequences the cache never exceeds capacity,
// list and map stay consistent, and every request is answered once.
func TestPageCacheInvariantsProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		eng := sim.NewEngine()
		capWindows := r.Intn(6) + 1
		pc := NewPageCache(eng, units.Bytes(capWindows)*64*units.KiB, 64*units.KiB)
		requests, answered := 0, 0
		n := r.Intn(200) + 1
		for i := 0; i < n; i++ {
			at := units.Time(r.Intn(1000)) * units.Microsecond
			file := FileID(r.Intn(3))
			win := int64(r.Intn(10))
			d := units.Time(r.Intn(50)) * units.Microsecond
			eng.At(at, func(units.Time) {
				requests++
				pc.Get(file, win, func(units.Time) { answered++ }, func(done sim.Event) {
					eng.After(d, done)
				})
			})
		}
		eng.RunUntilIdle()
		if pc.CheckInvariants() != nil {
			return false
		}
		if pc.used > units.Bytes(capWindows)*pc.window {
			return false
		}
		return answered == requests
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkPageCacheGet(b *testing.B) {
	eng := sim.NewEngine()
	pc := NewPageCache(eng, units.GiB, 256*units.KiB)
	noop := func(units.Time) {}
	fetch := func(done sim.Event) { eng.Immediately(done) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc.Get(FileID(i%4), int64(i%512), noop, fetch)
		if i%256 == 255 {
			eng.RunUntilIdle()
		}
	}
	eng.RunUntilIdle()
}
