package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"sais/cluster"
	"sais/internal/scenario"
	"sais/internal/trace"
	"sais/internal/units"
)

// hookStats is what one cluster run reports through Config.Progress,
// which fires once before the first event and then every 64 events, or
// once per round when the run is sharded.
type hookStats struct {
	start time.Time
	Setup time.Duration // RunContext call → first Progress callback
	Calls uint64        // Progress callbacks
	Fired uint64        // events fired as of the last callback
}

func (h *hookStats) progress(fired uint64, _ int, _ units.Time) {
	if h.Calls == 0 {
		h.Setup = time.Since(h.start)
	}
	h.Calls++
	h.Fired = fired
}

// rounds is the number of shard rounds: a sharded run polls Progress
// before every round and once more when every shard is idle. A run on
// one engine has no rounds.
func (h hookStats) rounds(cfg cluster.Config) uint64 {
	if cfg.Shards <= 1 || h.Calls == 0 {
		return 0
	}
	return h.Calls - 1
}

// runOnce executes cfg through the public entry point, timing setup
// through the Progress hook. With spanned set it records strip spans.
func runOnce(ctx context.Context, cfg cluster.Config, spanned bool) (*cluster.Result, *trace.SpanLog, hookStats, error) {
	h := &hookStats{}
	cfg.Progress = h.progress
	h.start = time.Now()
	if spanned {
		res, log, err := cluster.RunSpannedContext(ctx, cfg)
		return res, log, *h, err
	}
	res, err := cluster.RunContext(ctx, cfg)
	return res, nil, *h, err
}

// stripsMoved is the number of strips a run moved, reads and writes
// alike.
func stripsMoved(res *cluster.Result, cfg cluster.Config) float64 {
	return float64(res.TotalBytes) / float64(cfg.StripSize)
}

// rep is one repetition of a workload: every config of the workload
// run once, in order.
type rep struct {
	Wall       time.Duration
	Cal        time.Duration // calibration kernel time either side, averaged
	Mallocs    uint64
	AllocBytes uint64
	Bytes      units.Bytes
	Strips     float64
	Events     uint64
	Rounds     uint64
	Results    []*cluster.Result
	Logs       []*trace.SpanLog // spanned reps only
	Err        error
}

// runRep runs one repetition of w. Heap counters bracket the whole
// repetition; wall time includes setup.
func runRep(ctx context.Context, w workload, spanned bool) rep {
	var r rep
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0, b0 := ms.Mallocs, ms.TotalAlloc
	t0 := time.Now()
	for _, cfg := range w.Runs {
		res, log, h, err := runOnce(ctx, cfg, spanned)
		if err != nil {
			r.Err = fmt.Errorf("%s run: %w", cfg.Policy, err)
			break
		}
		r.Events += h.Fired
		r.Rounds += h.rounds(cfg)
		r.Bytes += res.TotalBytes
		r.Strips += stripsMoved(res, cfg)
		r.Results = append(r.Results, res)
		r.Logs = append(r.Logs, log)
	}
	r.Wall = time.Since(t0)
	runtime.ReadMemStats(&ms)
	r.Mallocs, r.AllocBytes = ms.Mallocs-m0, ms.TotalAlloc-b0
	return r
}

// setupProbe measures one config's setup alone: the run is cancelled
// from its first Progress callback, before any event fires.
func setupProbe(cfg cluster.Config) (time.Duration, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := &hookStats{}
	cfg.Progress = func(fired uint64, live int, now units.Time) {
		h.progress(fired, live, now)
		cancel()
	}
	h.start = time.Now()
	_, err := cluster.RunContext(ctx, cfg)
	if h.Calls == 0 {
		return 0, errors.New("setup probe: Progress never fired")
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	return h.Setup, nil
}

// checker holds the reference outputs of one seed and counts the
// repetitions that disagree with them.
type checker struct {
	w         workload
	ref       [][]byte // Result JSON per config, from the first repetition
	attempted int
	failed    int
	problems  []string
}

// check validates one repetition and reports whether it passed: it
// completed, no operation failed or degraded, and every Result is
// byte-identical to the reference (the first checked repetition becomes
// the reference). Spanned repetitions must also pass the runtime
// invariant suite.
func (c *checker) check(kind string, r rep) bool {
	c.attempted++
	if msg := c.problem(r); msg != "" {
		c.fail(kind, msg)
		return false
	}
	return true
}

// fail counts a checked repetition as failed.
func (c *checker) fail(kind, msg string) {
	c.failed++
	c.problems = append(c.problems, kind+": "+msg)
}

func (c *checker) problem(r rep) string {
	if r.Err != nil {
		return r.Err.Error()
	}
	if c.ref == nil {
		for _, res := range r.Results {
			js, err := json.Marshal(res)
			if err != nil {
				return err.Error()
			}
			c.ref = append(c.ref, js)
		}
	}
	for i, res := range r.Results {
		cfg := c.w.Runs[i]
		if res.Faults.FailedOps != 0 || res.Faults.PartialOps != 0 {
			return fmt.Sprintf("%s: %d failed, %d partial ops", cfg.Policy, res.Faults.FailedOps, res.Faults.PartialOps)
		}
		js, err := json.Marshal(res)
		if err != nil {
			return err.Error()
		}
		if !bytes.Equal(js, c.ref[i]) {
			return fmt.Sprintf("%s: Result differs from the reference run of the same seed", cfg.Policy)
		}
		if r.Logs[i] != nil {
			if vs := scenario.CheckInvariants(cfg, res, r.Logs[i]); len(vs) > 0 {
				return fmt.Sprintf("%s: invariant %v", cfg.Policy, vs[0])
			}
		}
	}
	return ""
}
