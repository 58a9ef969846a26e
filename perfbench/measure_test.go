package main

import (
	"context"
	"testing"
	"time"

	"sais/cluster"
	"sais/internal/units"
)

func TestStripsMovedCountsWrites(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Clients, cfg.Servers, cfg.CoresPerClient, cfg.ProcsPerClient = 2, 4, 4, 2
	cfg.TransferSize, cfg.BytesPerProc = 256*units.KiB, units.MiB
	for _, write := range []bool{false, true} {
		cfg.WriteWorkload = write
		res, err := cluster.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(2*2*units.MiB) / float64(cfg.StripSize)
		if got := stripsMoved(res, cfg); got != want {
			t.Errorf("write=%v: stripsMoved = %v, want %v", write, got, want)
		}
	}
}

func TestHookTimesSetupOnce(t *testing.T) {
	h := &hookStats{start: time.Now()}
	time.Sleep(time.Millisecond)
	h.progress(0, 5, 0)
	setup := h.Setup
	if setup < time.Millisecond {
		t.Fatalf("setup %v shorter than the sleep before the first callback", setup)
	}
	time.Sleep(time.Millisecond)
	h.progress(64, 3, 10)
	h.progress(100, 0, 20)
	if h.Setup != setup || h.Calls != 3 || h.Fired != 100 {
		t.Fatalf("after three callbacks: setup %v (first %v), calls %d, fired %d", h.Setup, setup, h.Calls, h.Fired)
	}
}

func TestProgressHookCountsRounds(t *testing.T) {
	cfg := sharded256(1)
	cfg.Clients, cfg.Servers, cfg.BytesPerProc = 8, 4, 256*units.KiB
	var fired [2]uint64
	for i, shards := range []int{1, 2} {
		cfg.Shards, cfg.Workers = shards, 1
		start := time.Now()
		_, _, h, err := runOnce(context.Background(), cfg, false)
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if h.Calls == 0 || h.Setup <= 0 || h.Setup > wall {
			t.Fatalf("shards=%d: %d callbacks, setup %v of wall %v", shards, h.Calls, h.Setup, wall)
		}
		fired[i] = h.Fired
		switch r := h.rounds(cfg); {
		case shards == 1 && r != 0:
			t.Fatalf("single engine reported %d rounds", r)
		case shards == 2 && (r == 0 || r != h.Calls-1):
			t.Fatalf("sharded run: %d rounds from %d callbacks", r, h.Calls)
		}
	}
	// The sharded run's last callback comes after the final round, so
	// it sees every event; the single engine polls every 64 events and
	// may miss the last few.
	if fired[0] > fired[1] || fired[1]-fired[0] >= 64 {
		t.Fatalf("events: single engine %d, sharded %d", fired[0], fired[1])
	}
}

func TestSetupProbeStopsAtFirstCallback(t *testing.T) {
	w, err := buildWorkload("hybrid-1m", 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	d, err := setupProbe(w.Runs[0])
	if err != nil {
		t.Fatal(err)
	}
	// A full repetition takes hundreds of milliseconds.
	if d <= 0 || time.Since(start) > 100*time.Millisecond {
		t.Fatalf("setup %v, probe took %v", d, time.Since(start))
	}
}

func TestCheckerCountsMismatches(t *testing.T) {
	w := tinyRead()
	c := &checker{w: w}
	good := runRep(context.Background(), w, true)
	c.check("spanned", good)
	c.check("timed", runRep(context.Background(), w, false))
	if c.failed != 0 {
		t.Fatalf("identical runs flagged: %v", c.problems)
	}
	other := w
	other.Runs = []cluster.Config{w.Runs[0]}
	other.Runs[0].BytesPerProc /= 2
	c.check("other output", runRep(context.Background(), other, false))
	failedOp := good
	res := *good.Results[0]
	res.Faults.FailedOps = 1
	failedOp.Results = []*cluster.Result{&res}
	c.check("failed op", failedOp)
	if c.attempted != 4 || c.failed != 2 {
		t.Fatalf("attempted %d, failed %d: %v", c.attempted, c.failed, c.problems)
	}
}
