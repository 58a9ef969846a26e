package disk

import (
	"fmt"
	"testing"

	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/units"
)

// TestElevatorMatchesSliceReference drives Disk and the slice
// reference (sliceelevator_oracle_test.go) with the same 4096 requests:
// random LBAs, some following the previous request into its readahead
// window, reads mixed with writes, half queued at once and the rest
// arriving while the queue is thousands deep. The two must complete the
// same requests in the same order at the same times with equal Stats.
func TestElevatorMatchesSliceReference(t *testing.T) {
	const n = 4096
	type arrival struct {
		at    units.Time
		lba   units.Bytes
		size  units.Bytes
		write bool
	}
	cfg := DefaultConfig()
	r := rng.New(rng.Derive(0xe1e, 0))
	reqs := make([]arrival, n)
	for i := range reqs {
		a := &reqs[i]
		a.size = units.Bytes(1+r.Intn(32)) * 4 * units.KiB
		if i > 0 && r.Intn(4) == 0 {
			prev := reqs[i-1]
			a.lba = min(prev.lba+prev.size, cfg.Span-a.size)
		} else {
			a.lba = units.Bytes(r.Int63n(int64(cfg.Span - a.size)))
		}
		a.write = r.Intn(2) == 0
		if i >= n/2 {
			a.at = units.Time(r.Int63n(int64(40 * units.Second)))
		}
	}

	type trace struct {
		order []int
		times []units.Time
		stats Stats
		end   units.Time
	}
	drive := func(read, write func(lba, size units.Bytes, done sim.Event), eng *sim.Engine, stats func() Stats) trace {
		tr := trace{times: make([]units.Time, n)}
		for i, a := range reqs {
			done := func(now units.Time) {
				tr.order = append(tr.order, i)
				tr.times[i] = now
			}
			eng.At(a.at, func(units.Time) {
				if a.write {
					write(a.lba, a.size, done)
				} else {
					read(a.lba, a.size, done)
				}
			})
		}
		tr.end = eng.RunUntilIdle()
		tr.stats = stats()
		return tr
	}

	for _, window := range []int{1, 8} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			cfg.ElevatorWindow = window
			eng := sim.NewEngine()
			d := New(eng, cfg, rng.New(3))
			got := drive(d.Read, d.Write, eng, d.Stats)
			refEng := sim.NewEngine()
			ref := newSliceDisk(refEng, cfg, rng.New(3))
			want := drive(ref.Read, ref.Write, refEng, ref.Stats)

			if len(got.order) != n || len(want.order) != n {
				t.Fatalf("completed %d requests, reference %d, want %d", len(got.order), len(want.order), n)
			}
			for k := range got.order {
				if got.order[k] != want.order[k] {
					t.Fatalf("completion %d is request %d, reference %d", k, got.order[k], want.order[k])
				}
			}
			for i := range got.times {
				if got.times[i] != want.times[i] {
					t.Fatalf("request %d completed at %v, reference %v", i, got.times[i], want.times[i])
				}
			}
			if got.stats != want.stats {
				t.Errorf("stats %+v, reference %+v", got.stats, want.stats)
			}
			if got.end != want.end {
				t.Errorf("makespan %v, reference %v", got.end, want.end)
			}
			if got.stats.Sequential == 0 || got.stats.Seeks == 0 || got.stats.Writes == 0 {
				t.Errorf("stats %+v: the requests must mix readahead hits, seeks and writes", got.stats)
			}
		})
	}
}

// BenchmarkDiskDispatch is the elevator in steady state at a fixed
// queue depth: each op queues one random read and completes the request
// in service, whose completion dispatches the next. Dispatch must not
// cost more at depth 4096 than at depth 8.
func BenchmarkDiskDispatch(b *testing.B) {
	cfg := DefaultConfig()
	r := rng.New(rng.Derive(0xd15c, 0))
	lbas := make([]units.Bytes, 1024)
	for i := range lbas {
		lbas[i] = units.Bytes(r.Int63n(int64(cfg.Span - 64*units.KiB)))
	}
	for _, depth := range []int{8, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			eng := sim.NewEngine()
			d := New(eng, cfg, rng.New(1))
			k := 0
			cycle := func() {
				d.Read(lbas[k&(len(lbas)-1)], 64*units.KiB, nil)
				k++
				at, _ := eng.PeekNextEventTime()
				eng.RunBefore(at + 1) // the one completion due next
			}
			// One request in service plus depth queued, then warm the
			// ring to its steady size.
			for i := 0; i <= depth; i++ {
				d.Read(lbas[k&(len(lbas)-1)], 64*units.KiB, nil)
				k++
			}
			for i := 0; i < 1000; i++ {
				cycle()
			}
			if d.queue.Len() != depth {
				b.Fatalf("queue depth %d, want %d", d.queue.Len(), depth)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}
