package cluster_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sais/cluster"
	"sais/internal/flowsim"
	"sais/internal/irqsched"
	"sais/internal/metrics"
	"sais/internal/trace"
	"sais/internal/units"
)

// hybridBase is the hybrid-mode differential configuration: a sharded
// test cluster (mirroring shardedBase) carrying 100k analytic
// background users in a two-tenant mix that exercises every flowsim
// path — a colocated diurnal tenant loading the foreground client NICs
// and a bursty tenant concentrated on a hot-server subset.
func hybridBase() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Clients = 3
	cfg.Servers = 5
	cfg.CoresPerClient = 4
	cfg.ProcsPerClient = 2
	cfg.BytesPerProc = 2 * units.MiB
	cfg.Policy = irqsched.PolicySourceAware
	cfg.BackgroundUsers = 100000
	cfg.TenantMix = []flowsim.TenantShare{
		{Name: "diurnal", Share: 0.6, PerUserRate: 8000, Shape: "diurnal",
			Period: 8 * units.Millisecond, Amplitude: 0.8, Colocate: 0.3},
		{Name: "burst", Share: 0.4, PerUserRate: 10000, Shape: "burst",
			Period: 5 * units.Millisecond, Duty: 0.3, HotServers: 2},
	}
	return cfg
}

// hybridShardCounts are the shard counts the hybrid differentials
// sweep against the single-engine reference run.
var hybridShardCounts = []int{2, 4}

// TestHybridShardedByteIdentity: the analytic background engine must
// not break the sharding contract — same Result bytes (including the
// Background* rollups) for every layout.
func TestHybridShardedByteIdentity(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*cluster.Config)
	}{
		{"two-tenant", func(cfg *cluster.Config) {}},
		{"rss", func(cfg *cluster.Config) { cfg.Policy = irqsched.PolicyHardwareRSS }},
		{"server-only", func(cfg *cluster.Config) {
			cfg.TenantMix = []flowsim.TenantShare{
				{Name: "bulk", Share: 1, PerUserRate: 12000},
			}
		}},
		{"overload", func(cfg *cluster.Config) {
			// Push the hot servers past saturation so the backlog and
			// slowdown-clamp paths are exercised across layouts too.
			cfg.TenantMix = []flowsim.TenantShare{
				{Name: "diurnal", Share: 0.5, PerUserRate: 20000, Shape: "diurnal",
					Period: 8 * units.Millisecond, Amplitude: 0.8, Colocate: 0.3},
				{Name: "hot", Share: 0.5, PerUserRate: 40000, HotServers: 1},
			}
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := hybridBase()
			v.mut(&cfg)
			ref := resultJSON(t, cfg)
			var res cluster.Result
			if err := json.Unmarshal(ref, &res); err != nil {
				t.Fatal(err)
			}
			if res.BackgroundOfferedBytes <= 0 || res.BackgroundServedBytes <= 0 {
				t.Fatalf("no background traffic accounted: %s", ref)
			}
			for _, shards := range hybridShardCounts {
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

// TestHybridTraceIdentity: the foreground cohort's span log — the part
// of the run that keeps full fidelity — exports byte-identically across
// layouts under hybrid load.
func TestHybridTraceIdentity(t *testing.T) {
	cfg := hybridBase()
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
	for _, shards := range hybridShardCounts {
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

// hybrid1mShape is the hybrid-1m benchmark workload's shape at a small
// byte budget: 64 four-core clients, 16 servers and a million analytic
// users in a streaming plus hot-server burst mix.
func hybrid1mShape() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Clients = 64
	cfg.Servers = 16
	cfg.CoresPerClient = 4
	cfg.ProcsPerClient = 1
	cfg.TransferSize = 256 * units.KiB
	cfg.BytesPerProc = 8 * units.MiB
	cfg.BackgroundUsers = 1_000_000
	cfg.TenantMix = []flowsim.TenantShare{
		{Name: "stream", Share: 0.7, PerUserRate: 3000, Colocate: 0.15},
		{Name: "burst", Share: 0.3, PerUserRate: 2500, Shape: "burst",
			Period: 10 * units.Millisecond, Duty: 0.3, HotServers: 4},
	}
	return cfg
}

// noisyLoad returns the config of studies/noisy.json at the load dim's
// label: the study's base config over the default, then the label's
// delta, decoded as the study runner decodes them.
func noisyLoad(t *testing.T, label string) cluster.Config {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "studies", "noisy.json"))
	if err != nil {
		t.Fatal(err)
	}
	var study struct {
		Config json.RawMessage
		Dims   []struct {
			Values []struct {
				Label  string
				Config json.RawMessage
			}
		}
	}
	if err := json.Unmarshal(b, &study); err != nil {
		t.Fatal(err)
	}
	cfg := cluster.DefaultConfig()
	decode := func(raw json.RawMessage) {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			t.Fatal(err)
		}
	}
	decode(study.Config)
	for _, v := range study.Dims[0].Values {
		if v.Label != label {
			continue
		}
		if v.Config != nil {
			decode(v.Config)
		}
		return cfg
	}
	t.Fatalf("studies/noisy.json has no load %q", label)
	return cfg
}

// TestHybridGolden pins hybrid runs byte for byte under
// testdata/hybrid: the Result JSON of hybridBase under every policy at
// one and two shards, of the noisy study's loads 1 and 2 under every
// policy, of a hybrid-1m-shaped config under four policies and of
// hybridBase with a timeslice quantum, plus the SHA-256 of spanned
// hybridBase's Chrome trace under three policies. -update rewrites the
// files.
func TestHybridGolden(t *testing.T) {
	type golden struct {
		name   string
		cfg    cluster.Config
		traced bool
	}
	var cases []golden
	policy := func(cfg cluster.Config, name string) cluster.Config {
		p, err := irqsched.ParsePolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		return cfg.WithPolicy(p)
	}
	load1, load2 := noisyLoad(t, "1"), noisyLoad(t, "2")
	for _, name := range irqsched.Names() {
		for _, shards := range []int{1, 2} {
			cfg := policy(hybridBase(), name)
			cfg.Shards = shards
			cases = append(cases, golden{name: fmt.Sprintf("base-%s-shards%d", name, shards), cfg: cfg})
		}
		cases = append(cases,
			golden{name: "noisy-load1-" + name, cfg: policy(load1, name)},
			golden{name: "noisy-load2-" + name, cfg: policy(load2, name)})
	}
	for _, name := range []string{"sais", "irqbalance", "rss", "toeplitz"} {
		cases = append(cases, golden{name: "h1m-" + name, cfg: policy(hybrid1mShape(), name)})
	}
	quantum := hybridBase()
	quantum.TimesliceQuantum = 100 * units.Microsecond
	cases = append(cases, golden{name: "base-quantum100us", cfg: quantum})
	for _, name := range []string{"sais", "irqbalance", "rss"} {
		cases = append(cases, golden{name: "trace-" + name, cfg: policy(hybridBase(), name), traced: true})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.traced {
				_, log, err := cluster.RunSpannedContext(context.Background(), c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				if err := log.ExportChrome(h); err != nil {
					t.Fatal(err)
				}
				sum := hex.EncodeToString(h.Sum(nil)) + "\n"
				cluster.CheckGolden(t, filepath.Join("testdata", "hybrid", c.name+".sha256"), []byte(sum))
				return
			}
			res, err := cluster.Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			cluster.CheckGolden(t, filepath.Join("testdata", "hybrid", c.name+".json"), append(got, '\n'))
		})
	}
}

// TestHybridEventsPerStrip pins the hybrid engine's event cost, so a
// change that brings back per-client ticks or one job per phase fails:
// hybridBase under sais fires at most 13 events per strip it moves. One
// rate tick per engine and one two-phase softirq job per tenant give
// 12.33; a tick per client and a job per phase gave 16.00.
func TestHybridEventsPerStrip(t *testing.T) {
	cfg := hybridBase()
	var fired uint64
	cfg.Progress = func(n uint64, _ int, _ units.Time) { fired = n }
	res, err := cluster.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perStrip := float64(fired) / (float64(res.TotalBytes) / float64(cfg.StripSize))
	t.Logf("%d events, %.2f per strip", fired, perStrip)
	if perStrip > 13 {
		t.Errorf("%.2f events per strip, want at most 13", perStrip)
	}
}

// TestHybridValidationUniform (satellite 2): every invalid hybrid
// config is rejected with the same typed error at every shard count —
// the degrade-link<1 uniformity precedent. A shards=1 run must never
// accept a config a sharded run would refuse.
func TestHybridValidationUniform(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*cluster.Config)
		want error
	}{
		{"users without mix", func(c *cluster.Config) {
			c.TenantMix = nil
		}, flowsim.ErrNoTenantMix},
		{"negative rate", func(c *cluster.Config) {
			c.TenantMix = []flowsim.TenantShare{{Name: "a", Share: 1, PerUserRate: -5}}
		}, flowsim.ErrNegativeRate},
		{"shares not summing", func(c *cluster.Config) {
			c.TenantMix = []flowsim.TenantShare{
				{Name: "a", Share: 0.5, PerUserRate: 100},
				{Name: "b", Share: 0.3, PerUserRate: 100},
			}
		}, flowsim.ErrShareSum},
		{"bad shape", func(c *cluster.Config) {
			c.TenantMix = []flowsim.TenantShare{{Name: "a", Share: 1, PerUserRate: 100, Shape: "sawtooth"}}
		}, flowsim.ErrBadShape},
		{"diurnal without period", func(c *cluster.Config) {
			c.TenantMix = []flowsim.TenantShare{{Name: "a", Share: 1, PerUserRate: 100, Shape: "diurnal"}}
		}, flowsim.ErrBadPeriod},
		{"mix without users", func(c *cluster.Config) {
			// A stray mix with no population is validated too: shares
			// that don't sum must be surfaced, not silently ignored.
			c.BackgroundUsers = 0
			c.TenantMix = []flowsim.TenantShare{{Name: "a", Share: 0.25, PerUserRate: 100}}
		}, flowsim.ErrShareSum},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, shards := range []int{0, 2, 4} {
				cfg := hybridBase()
				cfg.Shards = shards
				tc.mut(&cfg)
				_, err := cluster.Run(cfg)
				if !errors.Is(err, tc.want) {
					t.Errorf("shards=%d: Run err = %v, want errors.Is %v", shards, err, tc.want)
				}
			}
		})
	}
}

// TestForegroundClientsAlias: ForegroundClients is an explicit alias
// for Clients — the two spellings produce byte-identical results.
func TestForegroundClientsAlias(t *testing.T) {
	cfg := hybridBase()
	ref := resultJSON(t, cfg)
	alias := cfg
	alias.Clients = 1 // overridden by the alias
	alias.ForegroundClients = cfg.Clients
	got := resultJSON(t, alias)
	// The configs differ (the alias field serializes), but the results
	// must not.
	if !bytes.Equal(ref, got) {
		t.Fatalf("ForegroundClients alias diverged:\nref %s\ngot %s", ref, got)
	}
}

// TestClassicResultOmitsBackground: a classic (non-hybrid) run's Result
// JSON must not mention the background fields at all — the schema
// addition is invisible to existing consumers, byte for byte.
func TestClassicResultOmitsBackground(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Servers = 2
	cfg.BytesPerProc = 2 * units.MiB
	b := resultJSON(t, cfg)
	if bytes.Contains(b, []byte("Background")) {
		t.Fatalf("classic-run JSON mentions background fields: %s", b)
	}
}

// foregroundStripLatencies reconstructs per-strip issue→IRQ latencies
// for the first fg clients from a span log — the foreground cohort's
// distribution, computable identically whether the background load is
// simulated clients (full fidelity) or analytic flows (hybrid).
func foregroundStripLatencies(log *trace.SpanLog, cfg cluster.Config, fg int) []float64 {
	clientIDs, _, _ := cfg.NodeLayout()
	foreground := make(map[int]bool, fg)
	for _, id := range clientIDs[:fg] {
		foreground[int(id)] = true
	}
	type stripKey struct {
		client int
		tag    uint64
		strip  int
	}
	issue := make(map[stripKey]units.Time)
	var lats []float64
	for _, s := range log.Spans() {
		if !foreground[s.Client] {
			continue
		}
		k := stripKey{s.Client, s.Tag, s.Strip}
		switch s.Phase {
		case trace.PhaseIssue:
			issue[k] = s.Start
		case trace.PhaseIRQ:
			if start, ok := issue[k]; ok {
				lats = append(lats, float64(s.End-start))
			}
		}
	}
	return lats
}

// TestHybridCalibration is the tentpole's fidelity contract: at a
// population both modes can execute, the hybrid engine's foreground
// strip-latency percentiles agree with a full-fidelity run (background
// modeled as real client nodes) within 1.5× on p50 and p95, and the
// analytic background demonstrably degrades the foreground median
// relative to an unloaded baseline.
//
// The comparison runs in the NIC/CPU-bound regime (shared files, warm
// server page cache) — the regime the fluid model is built for. In
// disk-seek-bound configurations (many distinct files per server) the
// two modes diverge by design: the analytic population imposes no seek
// pressure, a documented fidelity boundary (DESIGN.md §14).
func TestHybridCalibration(t *testing.T) {
	const (
		fg = 2 // measured cohort, full fidelity in both modes
		bg = 6 // background clients in the full-fidelity run
	)
	base := cluster.DefaultConfig()
	base.Servers = 4
	base.CoresPerClient = 4
	base.ProcsPerClient = 2
	base.BytesPerProc = 4 * units.MiB
	base.SharedFiles = true
	base.Policy = irqsched.PolicySourceAware

	// Full fidelity: fg+bg real clients, every strip simulated.
	full := base
	full.Clients = fg + bg
	fullRes, fullLog, err := cluster.RunSpannedContext(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	fullLats := foregroundStripLatencies(fullLog, full, fg)
	if len(fullLats) == 0 {
		t.Fatal("full-fidelity run produced no foreground strips")
	}

	// Hybrid: the same fg cohort, with the bg clients replaced by an
	// analytic population offering the rate the real bg clients
	// achieved (self-calibrated from the full run). Colocate is 0: the
	// full run's background lives on separate nodes, not on the
	// foreground NICs.
	var bgRate float64
	for _, r := range fullRes.PerClient[fg:] {
		bgRate += float64(r)
	}
	const users = 1000 * bg
	hybrid := base
	hybrid.Clients = fg
	hybrid.BackgroundUsers = users
	hybrid.TenantMix = []flowsim.TenantShare{
		{Name: "bg", Share: 1, PerUserRate: units.Rate(bgRate / users)},
	}
	_, hybridLog, err := cluster.RunSpannedContext(context.Background(), hybrid)
	if err != nil {
		t.Fatal(err)
	}
	hybridLats := foregroundStripLatencies(hybridLog, hybrid, fg)
	if len(hybridLats) == 0 {
		t.Fatal("hybrid run produced no foreground strips")
	}

	// Unloaded baseline for the directional check.
	alone := base
	alone.Clients = fg
	_, aloneLog, err := cluster.RunSpannedContext(context.Background(), alone)
	if err != nil {
		t.Fatal(err)
	}
	aloneLats := foregroundStripLatencies(aloneLog, alone, fg)

	check := func(name string, pct float64, tol float64) {
		fullP := metrics.Percentile(fullLats, pct)
		hybP := metrics.Percentile(hybridLats, pct)
		aloneP := metrics.Percentile(aloneLats, pct)
		t.Logf("%s: full=%v hybrid=%v alone=%v", name,
			units.Time(fullP), units.Time(hybP), units.Time(aloneP))
		if hybP < fullP/tol || hybP > fullP*tol {
			t.Errorf("%s: hybrid %v outside %gx of full-fidelity %v",
				name, units.Time(hybP), tol, units.Time(fullP))
		}
	}
	check("p50", 50, 1.5)
	check("p95", 95, 1.5)
	// Directional: the analytic background must hurt the foreground
	// median, like the real background does. (The tail is dominated by
	// first-pass page-cache misses in all three runs, so the
	// directional check is meaningful at the median only.)
	if hybP50, aloneP50 := metrics.Percentile(hybridLats, 50), metrics.Percentile(aloneLats, 50); hybP50 <= aloneP50 {
		t.Errorf("p50: hybrid %v not above unloaded baseline %v",
			units.Time(hybP50), units.Time(aloneP50))
	}
}
