package disk

import (
	"testing"

	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/units"
)

func newDisk(t *testing.T, cfg Config) (*sim.Engine, *Disk) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, New(eng, cfg, rng.New(1))
}

func noRotation() Config {
	cfg := DefaultConfig()
	cfg.RotationPeriod = 0 // deterministic service times for exact asserts
	return cfg
}

func TestSequentialReadsHitReadahead(t *testing.T) {
	eng, d := newDisk(t, noRotation())
	var done []units.Time
	eng.At(0, func(units.Time) {
		// First read positions; the next 7 strips sit in the 512 KiB
		// readahead window.
		for i := 0; i < 8; i++ {
			lba := units.Bytes(i) * 64 * units.KiB
			d.Read(lba, 64*units.KiB, func(now units.Time) { done = append(done, now) })
		}
	})
	eng.RunUntilIdle()
	st := d.Stats()
	// The head starts at LBA 0, so the first read positions for free;
	// every later strip is a readahead hit.
	if st.Seeks != 0 {
		t.Errorf("seeks = %d, want 0 (readahead covers the rest)", st.Seeks)
	}
	if st.Sequential != 7 {
		t.Errorf("sequential hits = %d, want 7", st.Sequential)
	}
	if st.Requests != 8 || len(done) != 8 {
		t.Errorf("requests = %d done = %d", st.Requests, len(done))
	}
}

func TestRandomReadsSeekEveryTime(t *testing.T) {
	eng, d := newDisk(t, noRotation())
	eng.At(0, func(units.Time) {
		for i := 1; i <= 4; i++ {
			d.Read(units.Bytes(i)*10*units.GiB, 64*units.KiB, nil)
		}
	})
	eng.RunUntilIdle()
	if got := d.Stats().Seeks; got != 4 {
		t.Errorf("seeks = %d, want 4", got)
	}
}

func TestSeekCostGrowsWithDistance(t *testing.T) {
	cfg := noRotation()
	// Near seek.
	engNear, near := newDisk(t, cfg)
	var nearDone units.Time
	engNear.At(0, func(units.Time) {
		near.Read(units.MiB, 4*units.KiB, func(now units.Time) { nearDone = now })
	})
	engNear.RunUntilIdle()
	// Far seek.
	engFar, far := newDisk(t, cfg)
	var farDone units.Time
	engFar.At(0, func(units.Time) {
		far.Read(200*units.GiB, 4*units.KiB, func(now units.Time) { farDone = now })
	})
	engFar.RunUntilIdle()
	if farDone <= nearDone {
		t.Errorf("far seek %v not slower than near seek %v", farDone, nearDone)
	}
	if farDone > cfg.FullSeek+cfg.MediaRate.TimeFor(4*units.KiB) {
		t.Errorf("far seek %v exceeds full-seek bound", farDone)
	}
}

func TestElevatorReordersWithinWindow(t *testing.T) {
	cfg := noRotation()
	cfg.ElevatorWindow = 8
	eng, d := newDisk(t, cfg)
	var order []units.Bytes
	record := func(lba units.Bytes) sim.Event {
		return func(units.Time) { order = append(order, lba) }
	}
	eng.At(0, func(units.Time) {
		// Busy the head with one request, then queue far and near.
		d.Read(0, 64*units.KiB, record(0))
		d.Read(100*units.GiB, 64*units.KiB, record(100*units.GiB))
		d.Read(units.MiB, 64*units.KiB, record(units.MiB))
	})
	eng.RunUntilIdle()
	if len(order) != 3 || order[1] != units.MiB {
		t.Errorf("service order = %v, want the near request second", order)
	}
}

func TestFIFOWithWindowOne(t *testing.T) {
	cfg := noRotation()
	cfg.ElevatorWindow = 1
	eng, d := newDisk(t, cfg)
	var order []units.Bytes
	eng.At(0, func(units.Time) {
		d.Read(0, 4*units.KiB, func(units.Time) { order = append(order, 0) })
		d.Read(100*units.GiB, 4*units.KiB, func(units.Time) { order = append(order, 1) })
		d.Read(units.MiB, 4*units.KiB, func(units.Time) { order = append(order, 2) })
	})
	eng.RunUntilIdle()
	for i, v := range order {
		if int(v) != i {
			t.Fatalf("window=1 must be FIFO, got %v", order)
		}
	}
}

func TestElevatorImprovesThroughput(t *testing.T) {
	// The Figure-12 mechanism: the same random request set completes
	// sooner when the elevator may reorder over a deeper window.
	run := func(window int) units.Time {
		cfg := noRotation()
		cfg.ElevatorWindow = window
		eng, d := newDisk(t, cfg)
		r := rng.New(7)
		eng.At(0, func(units.Time) {
			for i := 0; i < 64; i++ {
				d.Read(units.Bytes(r.Int63n(int64(200*units.GiB))), 4*units.KiB, nil)
			}
		})
		return eng.RunUntilIdle()
	}
	fifo := run(1)
	elevator := run(16)
	if elevator >= fifo {
		t.Errorf("elevator makespan %v not better than FIFO %v", elevator, fifo)
	}
}

func TestReadValidation(t *testing.T) {
	_, d := newDisk(t, noRotation())
	for _, f := range []func(){
		func() { d.Read(0, 0, nil) },
		func() { d.Read(-1, 4, nil) },
		func() { d.Read(250*units.GiB, 4*units.KiB, nil) },
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

func TestConfigValidation(t *testing.T) {
	bad := []func(c *Config){
		func(c *Config) { c.MediaRate = 0 },
		func(c *Config) { c.FullSeek = c.TrackToTrack - 1 },
		func(c *Config) { c.RotationPeriod = -1 },
		func(c *Config) { c.Span = 0 },
		func(c *Config) { c.ReadAhead = -1 },
		func(c *Config) { c.ElevatorWindow = 0 },
	}
	for i, mod := range bad {
		cfg := DefaultConfig()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: config accepted", i)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() units.Time {
		eng := sim.NewEngine()
		d := New(eng, DefaultConfig(), rng.New(42))
		r := rng.New(9)
		eng.At(0, func(units.Time) {
			for i := 0; i < 32; i++ {
				d.Read(units.Bytes(r.Int63n(int64(100*units.GiB))), 64*units.KiB, nil)
			}
		})
		return eng.RunUntilIdle()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("runs differ: %v vs %v", a, b)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, d := newDisk(t, noRotation())
	eng.At(0, func(units.Time) {
		d.Read(0, 128*units.KiB, nil)
	})
	end := eng.RunUntilIdle()
	st := d.Stats()
	if st.Bytes != 128*units.KiB {
		t.Errorf("bytes = %v", st.Bytes)
	}
	if st.BusyTime != end {
		t.Errorf("busy %v != makespan %v for a single request from t=0", st.BusyTime, end)
	}
}

func BenchmarkDiskSequentialStream(b *testing.B) {
	eng := sim.NewEngine()
	d := New(eng, DefaultConfig(), rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := units.Bytes(i%1000000) * 64 * units.KiB % (200 * units.GiB)
		d.Read(lba, 64*units.KiB, nil)
		if i%64 == 63 {
			eng.RunUntilIdle()
		}
	}
	eng.RunUntilIdle()
}
