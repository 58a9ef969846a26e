package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"sais/cluster"
	"sais/internal/faults"
	"sais/internal/irqsched"
	"sais/internal/units"
)

// shardedBase is a small but non-trivial multi-client cluster used by
// the differential tests: enough clients and servers that every shard
// count in {1..8} splits the node set unevenly, small enough byte
// budgets that a full run stays in the tens of milliseconds.
func shardedBase() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Clients = 3
	cfg.Servers = 5
	cfg.CoresPerClient = 4
	cfg.ProcsPerClient = 2
	cfg.BytesPerProc = 2 * units.MiB
	cfg.Policy = irqsched.PolicySourceAware
	return cfg
}

// resultJSON runs cfg and returns the marshalled Result — the byte
// string the sharding refactor promises is layout-invariant.
func resultJSON(t *testing.T, cfg cluster.Config) []byte {
	t.Helper()
	res, err := cluster.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// shardCounts is the set every differential test sweeps. Shards=3
// divides 8 nodes unevenly; 8 shards on 8 nodes puts one node per
// engine.
var shardCounts = []int{2, 3, 4, 8}

// TestShardedByteIdentity is the refactor's contract: the same
// cluster.Result bytes — bandwidth, cache stats, strip-latency
// percentiles, fault counters — for every shard count.
func TestShardedByteIdentity(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*cluster.Config)
	}{
		{"read", func(cfg *cluster.Config) {}},
		{"write", func(cfg *cluster.Config) { cfg.WriteWorkload = true }},
		{"rss-shared", func(cfg *cluster.Config) {
			cfg.Policy = irqsched.PolicyHardwareRSS
			cfg.SharedFiles = true
		}},
		{"random", func(cfg *cluster.Config) {
			cfg.RandomAccess = true
			cfg.Seed = 7
		}},
		{"faulty", func(cfg *cluster.Config) {
			cfg.RetryTimeout = 30 * units.Millisecond
			cfg.MaxRetries = 4
			cfg.Faults = &faults.Plan{Loss: 0.01, Corrupt: 0.005, Stalls: []faults.Stall{
				{Server: -1, Rate: 0.2, Mean: 100 * units.Microsecond},
			}, Timeline: []faults.TimelineEvent{
				{At: 2 * units.Millisecond, Kind: faults.KindCrash, Server: 1},
				{At: 6 * units.Millisecond, Kind: faults.KindRevive, Server: 1},
				{At: 3 * units.Millisecond, Kind: faults.KindDegradeLink, Factor: 4},
				{At: 5 * units.Millisecond, Kind: faults.KindDegradeLink, Factor: 1},
				{At: 4 * units.Millisecond, Kind: faults.KindStormStart,
					Client: 0, Period: 50 * units.Microsecond},
				{At: 4500 * units.Microsecond, Kind: faults.KindStormStop},
			}}
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := shardedBase()
			v.mut(&cfg)
			ref := resultJSON(t, cfg)
			for _, shards := range shardCounts {
				c := cfg
				c.Shards = shards
				got := resultJSON(t, c)
				if !bytes.Equal(ref, got) {
					t.Errorf("shards=%d diverged from single-engine run:\nref %s\ngot %s",
						shards, ref, got)
				}
			}
		})
	}
}

// TestShardedTraceIdentity extends byte-identity to the full span log:
// same span count, same orphan count, and a byte-identical Chrome
// trace export for every shard count.
func TestShardedTraceIdentity(t *testing.T) {
	cfg := shardedBase()
	run := func(shards int) (int, uint64, []byte) {
		c := cfg
		c.Shards = shards
		_, log, err := cluster.RunSpannedContext(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := log.ExportChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return log.Len(), log.Orphans(), buf.Bytes()
	}
	spans, orphans, ref := run(0)
	if spans == 0 {
		t.Fatal("reference run produced no spans")
	}
	for _, shards := range shardCounts {
		s, o, got := run(shards)
		if s != spans || o != orphans {
			t.Fatalf("shards=%d: %d spans / %d orphans, want %d / %d",
				shards, s, o, spans, orphans)
		}
		if !bytes.Equal(ref, got) {
			t.Fatalf("shards=%d: trace export diverged (%d vs %d bytes)",
				shards, len(got), len(ref))
		}
	}
}

// TestShardedScale1000 is the issue's scale scenario: 1000 clients and
// 100 servers with tiny per-proc budgets, run once on a single engine
// and once on 8 shards. The run must complete and produce
// identical results — the point is that conservative synchronization
// holds up at three orders of magnitude more nodes than the testbed.
func TestShardedScale1000(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-node scenario skipped in -short mode")
	}
	cfg := cluster.DefaultConfig()
	cfg.Clients = 1000
	cfg.Servers = 100
	cfg.CoresPerClient = 2
	cfg.ProcsPerClient = 1
	cfg.CachePerCore = 64 * units.KiB
	cfg.StripSize = 16 * units.KiB
	cfg.TransferSize = 64 * units.KiB
	cfg.BytesPerProc = 128 * units.KiB
	cfg.Policy = irqsched.PolicySourceAware
	ref := resultJSON(t, cfg)
	cfg.Shards = 8
	got := resultJSON(t, cfg)
	if !bytes.Equal(ref, got) {
		t.Fatalf("1000-client run diverged:\nref %s\ngot %s", ref, got)
	}
	var res cluster.Result
	if err := json.Unmarshal(got, &res); err != nil {
		t.Fatal(err)
	}
	if res.Bandwidth <= 0 {
		t.Fatalf("bandwidth %v, want positive", res.Bandwidth)
	}
}

// TestShardedProgress checks the aggregate progress callback fires on
// sharded runs and reports a non-decreasing global clock.
func TestShardedProgress(t *testing.T) {
	cfg := shardedBase()
	cfg.Shards = 4
	var calls int
	var lastNow units.Time
	var lastFired uint64
	cfg.Progress = func(fired uint64, live int, now units.Time) {
		calls++
		if now < lastNow {
			t.Fatalf("global clock went backwards: %v after %v", now, lastNow)
		}
		if fired < lastFired {
			t.Fatalf("fired count went backwards: %d after %d", fired, lastFired)
		}
		if live < 0 {
			t.Fatalf("negative live count %d", live)
		}
		lastNow, lastFired = now, fired
	}
	if _, err := cluster.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress callback never fired on a sharded run")
	}
}

// TestShardedValidate covers the new Config knobs' error paths.
func TestShardedValidate(t *testing.T) {
	cfg := shardedBase()
	cfg.Shards = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative shards accepted")
	}
	cfg = shardedBase()
	cfg.Workers = -2
	if err := cfg.Validate(); err == nil {
		t.Error("negative workers accepted")
	}
	cfg = shardedBase()
	cfg.Shards = 2
	cfg.FabricLatency = 0
	if err := cfg.Validate(); err == nil {
		t.Error("sharded run with zero fabric latency accepted")
	}
	// More shards than nodes is legal — it clamps.
	cfg = shardedBase()
	cfg.Shards = 500
	if err := cfg.Validate(); err != nil {
		t.Errorf("oversized shard count rejected: %v", err)
	}
	ref := resultJSON(t, cfg)
	// Workers is deprecated: a positive count is accepted and ignored.
	cfg.Workers = 16
	if err := cfg.Validate(); err != nil {
		t.Errorf("positive worker count rejected: %v", err)
	}
	if got := resultJSON(t, cfg); !bytes.Equal(ref, got) {
		t.Errorf("worker count changed the result:\nref %s\ngot %s", ref, got)
	}
}

// TestShardedDegradeLinkRejected documents the degrade-link floor:
// shrinking the fabric latency below the lookahead would break the
// sharded executor's conservative horizon, so factors < 1 are rejected
// at plan validation — uniformly, for every shard count, so shards=1
// runs can never silently diverge from sharded runs of the same plan.
func TestShardedDegradeLinkRejected(t *testing.T) {
	cfg := shardedBase()
	cfg.Shards = 2
	cfg.Faults = &faults.Plan{Timeline: []faults.TimelineEvent{
		{At: units.Millisecond, Kind: faults.KindDegradeLink, Factor: 0.5},
	}}
	if _, err := cluster.Run(cfg); err == nil {
		t.Fatal("speed-up degrade-link accepted on a sharded run")
	}
	cfg.Shards = 0
	if _, err := cluster.Run(cfg); err == nil {
		t.Fatal("speed-up degrade-link accepted on a single-engine run; validation must be uniform")
	}
}
