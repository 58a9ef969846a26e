package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sais/internal/analytic"
	"sais/internal/faults"
	"sais/internal/irqsched"
	"sais/internal/netsim"
	"sais/internal/trace"
	"sais/internal/units"
)

// quickCfg returns a small, fast configuration for unit tests.
func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Servers = 8
	cfg.BytesPerProc = 8 * units.MiB
	return cfg
}

func TestRunProducesConsistentResult(t *testing.T) {
	res, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != 16*units.MiB {
		t.Errorf("total bytes = %v, want 16MiB (2 procs x 8MiB)", res.TotalBytes)
	}
	if res.Duration <= 0 || res.Bandwidth <= 0 {
		t.Errorf("duration=%v bandwidth=%v", res.Duration, res.Bandwidth)
	}
	if res.CacheMissRate <= 0 || res.CacheMissRate >= 1 {
		t.Errorf("miss rate = %v", res.CacheMissRate)
	}
	if res.CPUUtilization <= 0 || res.CPUUtilization >= 1 {
		t.Errorf("utilization = %v", res.CPUUtilization)
	}
	if res.UnhaltedCycles <= 0 {
		t.Error("no unhalted cycles")
	}
	if res.Interrupts == 0 {
		t.Error("no interrupts counted")
	}
	if res.RingDrops != 0 {
		t.Errorf("ring drops = %d in a healthy run", res.RingDrops)
	}
	if len(res.PerClient) != 1 {
		t.Errorf("per-client entries = %d", len(res.PerClient))
	}
	if res.LineMisses != res.RemoteLines+res.MemoryLines {
		t.Errorf("misses %d != remote %d + memory %d", res.LineMisses, res.RemoteLines, res.MemoryLines)
	}
}

func TestHeadlineResultSAIsBeatsIrqbalance(t *testing.T) {
	cfg := quickCfg()
	cfg.Servers = 16
	base, err := Run(cfg.WithPolicy(irqsched.PolicyIrqbalance))
	if err != nil {
		t.Fatal(err)
	}
	sais, err := Run(cfg.WithPolicy(irqsched.PolicySourceAware))
	if err != nil {
		t.Fatal(err)
	}
	if sais.Bandwidth <= base.Bandwidth {
		t.Errorf("SAIs %v not faster than irqbalance %v", sais.Bandwidth, base.Bandwidth)
	}
	if sais.CacheMissRate >= base.CacheMissRate {
		t.Errorf("SAIs miss rate %.3f not below irqbalance %.3f", sais.CacheMissRate, base.CacheMissRate)
	}
	if sais.UnhaltedCycles >= base.UnhaltedCycles {
		t.Errorf("SAIs unhalted %d not below irqbalance %d", sais.UnhaltedCycles, base.UnhaltedCycles)
	}
	if sais.RemoteLines != 0 {
		t.Errorf("SAIs produced %d migrated lines", sais.RemoteLines)
	}
	if base.RemoteLines == 0 {
		t.Error("irqbalance produced no migrated lines")
	}
}

// TestHintedIRQsFollowUsesHints checks, for every policy, that an
// interrupt counts as hinted exactly when the policy stamps hints: each
// UsesHints policy steers some interrupts to their aff_core_id, and no
// other policy's packets carry one.
func TestHintedIRQsFollowUsesHints(t *testing.T) {
	cfg := quickCfg()
	cfg.Servers = 16
	for _, name := range irqsched.Names() {
		p, err := irqsched.ParsePolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg.WithPolicy(p))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d, _ := irqsched.Describe(p)
		switch {
		case d.UsesHints && res.HintedIRQs == 0:
			t.Errorf("%s: no hinted interrupts", name)
		case !d.UsesHints && res.HintedIRQs != 0:
			t.Errorf("%s: %d hinted interrupts, want 0", name, res.HintedIRQs)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/policies/*.json from the current code")

// TestPolicyResultsGolden pins every Result field of the default config
// under each policy to testdata/policies/<name>.json; -update rewrites
// the files.
func TestPolicyResultsGolden(t *testing.T) {
	for _, name := range irqsched.Names() {
		p, err := irqsched.ParsePolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(DefaultConfig().WithPolicy(p))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		path := filepath.Join("testdata", "policies", name+".json")
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run go test -update to record it)", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Result differs from %s:\n%s", name, path, lineDiff(want, got))
		}
	}
}

// lineDiff lists the lines where got departs from want, by line number.
func lineDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	var out strings.Builder
	for i := range max(len(w), len(g)) {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&out, "%d: -%s\n%d: +%s\n", i+1, wl, i+1, gl)
		}
	}
	return out.String()
}

func TestOneGigabitNICBottleneckCompressesGain(t *testing.T) {
	cfg := quickCfg()
	cfg.Servers = 16
	g3 := cfg
	g1 := cfg
	g1.ClientNICRate = units.Gigabit

	gain := func(c Config) float64 {
		base, err := Run(c.WithPolicy(irqsched.PolicyIrqbalance))
		if err != nil {
			t.Fatal(err)
		}
		sais, err := Run(c.WithPolicy(irqsched.PolicySourceAware))
		if err != nil {
			t.Fatal(err)
		}
		return float64(sais.Bandwidth)/float64(base.Bandwidth) - 1
	}
	gain1, gain3 := gain(g1), gain(g3)
	if gain1 >= gain3 {
		t.Errorf("1-Gbit gain %.3f not below 3-Gbit gain %.3f (NIC bottleneck must compress it)", gain1, gain3)
	}
	if gain1 > 0.10 {
		t.Errorf("1-Gbit gain %.3f implausibly large", gain1)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.UnhaltedCycles != b.UnhaltedCycles ||
		a.LineAccesses != b.LineAccesses || a.Interrupts != b.Interrupts {
		t.Errorf("identical configs diverged: %+v vs %+v", a, b)
	}
	// A different seed changes the microdynamics but not the totals.
	c := quickCfg()
	c.Seed = 99
	r2, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if r2.TotalBytes != a.TotalBytes {
		t.Errorf("seed changed conservation: %v vs %v", r2.TotalBytes, a.TotalBytes)
	}
}

// allPolicies returns every kind in the policy table, in table order.
func allPolicies() []irqsched.PolicyKind {
	var ks []irqsched.PolicyKind
	for k := irqsched.PolicyKind(0); ; k++ {
		if _, ok := irqsched.Describe(k); !ok {
			return ks
		}
		ks = append(ks, k)
	}
}

func TestAllPoliciesRun(t *testing.T) {
	for _, p := range allPolicies() {
		res, err := Run(quickCfg().WithPolicy(p))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.TotalBytes != 16*units.MiB {
			t.Errorf("%v: bytes = %v", p, res.TotalBytes)
		}
	}
}

// TestReorderMetricZeroForInOrderPolicies pins the reorder counters to
// zero for every policy that keeps each flow's frames on one core while
// they are in flight: per-core FIFO softirq processing then preserves
// send order, so any nonzero count would be a steering or accounting
// bug. Flow Director is excluded — its mid-stream table updates are the
// one sanctioned source of reordering (scenarios/flow-director-reorder
// asserts the positive case).
func TestReorderMetricZeroForInOrderPolicies(t *testing.T) {
	for _, p := range allPolicies() {
		if p == irqsched.PolicyFlowDirector {
			continue
		}
		res, err := Run(quickCfg().WithPolicy(p))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.ReorderedFrames != 0 || res.ReorderDepthMax != 0 {
			t.Errorf("%v: reordered=%d depth=%d, want 0/0",
				p, res.ReorderedFrames, res.ReorderDepthMax)
		}
	}
}

func TestMultiClientSharedFiles(t *testing.T) {
	cfg := quickCfg()
	cfg.Clients = 4
	cfg.Servers = 8
	cfg.SharedFiles = true
	cfg.BytesPerProc = 4 * units.MiB
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := units.Bytes(4*2) * 4 * units.MiB
	if res.TotalBytes != want {
		t.Errorf("total bytes = %v, want %v", res.TotalBytes, want)
	}
	if len(res.PerClient) != 4 {
		t.Errorf("per-client = %d", len(res.PerClient))
	}
	// Shared files must outperform private files on the same cluster:
	// the servers' buffer caches absorb the re-reads.
	cfg2 := cfg
	cfg2.SharedFiles = false
	priv, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bandwidth <= priv.Bandwidth {
		t.Errorf("shared %v not above private %v", res.Bandwidth, priv.Bandwidth)
	}
}

func TestFailureInjectionLoss(t *testing.T) {
	cfg := quickCfg()
	cfg.Faults = &faults.Plan{Loss: 0.001}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Lost strips mean some transfers never complete; the run must
	// still terminate and deliver whatever arrived.
	if res.TotalBytes > 16*units.MiB {
		t.Errorf("delivered more than requested: %v", res.TotalBytes)
	}
	if res.Duration <= 0 {
		t.Error("run did not progress")
	}
}

func TestFailureInjectionServerStall(t *testing.T) {
	base, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.Faults = &faults.Plan{Stalls: []faults.Stall{{Server: -1, Rate: 0.2, Mean: 20 * units.Millisecond}}}
	slow, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Bandwidth >= base.Bandwidth {
		t.Errorf("stalled cluster %v not slower than healthy %v", slow.Bandwidth, base.Bandwidth)
	}
	if slow.TotalBytes != base.TotalBytes {
		t.Errorf("stalls lost data: %v vs %v", slow.TotalBytes, base.TotalBytes)
	}
}

func TestMigrateDuringBlockHurtsSAIs(t *testing.T) {
	cfg := quickCfg()
	cfg.Servers = 16
	sais, err := Run(cfg.WithPolicy(irqsched.PolicySourceAware))
	if err != nil {
		t.Fatal(err)
	}
	cfg.MigrateDuringBlock = 1
	migr, err := Run(cfg.WithPolicy(irqsched.PolicySourceAware))
	if err != nil {
		t.Fatal(err)
	}
	if migr.RemoteLines == 0 {
		t.Error("forced migration produced no cache-to-cache traffic")
	}
	if migr.Bandwidth >= sais.Bandwidth {
		t.Errorf("migrating SAIs %v not below pinned SAIs %v", migr.Bandwidth, sais.Bandwidth)
	}
}

func TestConfigValidation(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.Clients = 0 },
		func(c *Config) { c.Servers = 0 },
		func(c *Config) { c.CoresPerClient = 0 },
		func(c *Config) { c.ClientNICRate = 0 },
		func(c *Config) { c.StripSize = 0 },
		func(c *Config) { c.StripSize = 1 },
		func(c *Config) { c.StripSize = MinStripSize - 1 },
		func(c *Config) { c.ProcsPerClient = 0 },
		func(c *Config) { c.TransferSize = units.KiB },
		func(c *Config) { c.BytesPerProc = units.KiB },
		func(c *Config) { c.Faults = &faults.Plan{Loss: 1} },
		func(c *Config) { c.Faults = &faults.Plan{Stalls: []faults.Stall{{Server: -1, Rate: 2}}} },
		func(c *Config) { c.Costs.RemoteLine = -1 },
		func(c *Config) { c.Costs.SoftirqPerByte = math.NaN() },
		func(c *Config) { c.Costs.SocketSize = -1 },
		// Fields of the sub-configs run builds, checked by the package
		// that owns each one.
		func(c *Config) { c.MigrateDuringBlock = 2 },
		func(c *Config) { c.Disk.MediaRate = -1 },
		func(c *Config) { c.Disk.ElevatorWindow = 0 },
		func(c *Config) { c.Policy, c.CoresPerClient = irqsched.PolicySourceAware, 64 },
		func(c *Config) { c.TimesliceQuantum = -1 },
		func(c *Config) { c.IrqbalancePeriod = -1 },
		func(c *Config) { c.CoalesceDelay = -1 },
		func(c *Config) { c.L3PerSocket = -1 },
		func(c *Config) { c.FabricLatency = -1 },
		func(c *Config) { c.ClientBondMode = 7 },
		func(c *Config) { c.ClientNICPorts = -1 },
	}
	for i, mod := range mods {
		cfg := DefaultConfig()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted an invalid config", i)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("case %d: Run panicked: %v", i, r)
				}
			}()
			if _, err := Run(cfg); err == nil {
				t.Errorf("case %d: invalid config accepted", i)
			}
		}()
	}
}

func TestWriteWorkloadPoliciesTie(t *testing.T) {
	// The paper studies reads because writes have no interrupt-locality
	// issue; under the write workload the policies must land within a
	// few percent of each other.
	cfg := quickCfg()
	cfg.WriteWorkload = true
	base, err := Run(cfg.WithPolicy(irqsched.PolicyIrqbalance))
	if err != nil {
		t.Fatal(err)
	}
	sais, err := Run(cfg.WithPolicy(irqsched.PolicySourceAware))
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalBytes != 16*units.MiB || sais.TotalBytes != 16*units.MiB {
		t.Fatalf("bytes: %v vs %v", base.TotalBytes, sais.TotalBytes)
	}
	gap := float64(sais.Bandwidth)/float64(base.Bandwidth) - 1
	if gap > 0.05 || gap < -0.05 {
		t.Errorf("write-path gap %.2f%%; policies should tie", gap*100)
	}
	if sais.RemoteLines != 0 || base.RemoteLines != 0 {
		t.Errorf("write workload migrated lines: %d / %d", sais.RemoteLines, base.RemoteLines)
	}
}

func TestLossWithRetriesDeliversEverything(t *testing.T) {
	cfg := quickCfg()
	cfg.Faults = &faults.Plan{Loss: 0.01}
	cfg.RetryTimeout = 150 * units.Millisecond
	cfg.MaxRetries = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != 16*units.MiB {
		t.Errorf("delivered %v with retries enabled, want all 16MiB", res.TotalBytes)
	}
	if res.Retries == 0 {
		t.Error("1% loss should have triggered retries")
	}
	if res.FailedTransfers != 0 {
		t.Errorf("%d transfers failed despite generous retry budget", res.FailedTransfers)
	}
}

func TestHeavyLossAbandonsTransfers(t *testing.T) {
	cfg := quickCfg()
	cfg.BytesPerProc = 2 * units.MiB
	cfg.Faults = &faults.Plan{Loss: 0.5}
	cfg.RetryTimeout = 50 * units.Millisecond
	cfg.MaxRetries = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedTransfers == 0 {
		t.Error("50% loss with one retry should abandon some transfers")
	}
	if res.TotalBytes >= 4*units.MiB {
		t.Errorf("delivered %v under 50%% loss", res.TotalBytes)
	}
}

func TestWriteLossWithRetries(t *testing.T) {
	cfg := quickCfg()
	cfg.WriteWorkload = true
	cfg.Faults = &faults.Plan{Loss: 0.01}
	cfg.RetryTimeout = 150 * units.Millisecond
	cfg.MaxRetries = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != 16*units.MiB {
		t.Errorf("acked %v with retries enabled, want all 16MiB", res.TotalBytes)
	}
}

// TestPolicyInvisibleAtOneCore: with one core per client every policy
// must deliver every interrupt to core 0, so the run cannot depend on
// the policy at all — every Result field matches the first policy's,
// apart from the policy's name, its own counters and how many
// interrupts carried a hint.
func TestPolicyInvisibleAtOneCore(t *testing.T) {
	lossyWrite := quickCfg()
	lossyWrite.Clients = 2
	lossyWrite.WriteWorkload = true
	lossyWrite.Faults = &faults.Plan{Loss: 0.01}
	lossyWrite.RetryTimeout = 150 * units.Millisecond
	lossyWrite.MaxRetries = 10
	for name, cfg := range map[string]Config{"quick": quickCfg(), "lossy-write": lossyWrite} {
		t.Run(name, func(t *testing.T) {
			cfg.CoresPerClient = 1
			var first []byte
			var firstPolicy irqsched.PolicyKind
			for i, p := range allPolicies() {
				res, err := Run(cfg.WithPolicy(p))
				if err != nil {
					t.Fatalf("%v: %v", p, err)
				}
				res.Policy, res.PolicyStats, res.HintedIRQs = "", nil, 0
				got, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					first, firstPolicy = got, p
					continue
				}
				if !bytes.Equal(got, first) {
					t.Errorf("%v: result differs from %v at one core:\n%s\n%s", p, firstPolicy, got, first)
				}
			}
		})
	}
}

func TestAnalyticOrderingHoldsInSimulation(t *testing.T) {
	// Cross-check the §III model against the simulator: with the
	// default cost model (M >> P), the analytic prediction is that
	// source-aware beats balanced; the simulator must agree, and the
	// simulated migration stall must be of the order the model's M
	// accounts for.
	cfg := quickCfg()
	cfg.Servers = 16
	base, err := Run(cfg.WithPolicy(irqsched.PolicyIrqbalance))
	if err != nil {
		t.Fatal(err)
	}
	sais, err := Run(cfg.WithPolicy(irqsched.PolicySourceAware))
	if err != nil {
		t.Fatal(err)
	}
	p := analytic.Params{
		P:  20 * units.Microsecond,
		M:  200 * units.Microsecond,
		TR: 5 * units.Millisecond,
		NC: cfg.CoresPerClient,
		NS: cfg.Servers,
		NR: int(cfg.BytesPerProc / cfg.TransferSize),
		NP: cfg.ProcsPerClient,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.SourceAwareWins() {
		t.Fatal("model misconfigured: M <= P")
	}
	if sais.Duration >= base.Duration {
		t.Errorf("simulator contradicts the model: sais %v vs balanced %v", sais.Duration, base.Duration)
	}
	// The simulated per-strip migration stall is lines × RemoteLine =
	// 1024 × 200ns ≈ 205µs — the model's M. Check the books agree.
	strips := base.RemoteLines / 1024
	if strips == 0 {
		t.Fatal("no migrated strips under the balanced policy")
	}
	perStrip := base.BusyByCategory["migration"] / units.Time(strips)
	if perStrip < 150*units.Microsecond || perStrip > 250*units.Microsecond {
		t.Errorf("measured per-strip migration cost %v outside the model's M ≈ 200µs", perStrip)
	}
}

func TestBondedClientNIC(t *testing.T) {
	// The testbed's 3-Gigabit NIC is three bonded 1-Gbit ports. A
	// round-robin bond should behave close to the single 3-Gbit model;
	// a flow-hashed bond may do slightly worse (per-flow 1-Gbit cap).
	single := quickCfg()
	single.Servers = 16
	bonded := single
	bonded.ClientNICPorts = 3
	a, err := Run(single.WithPolicy(irqsched.PolicySourceAware))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(bonded.WithPolicy(irqsched.PolicySourceAware))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(b.Bandwidth) / float64(a.Bandwidth)
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("bonded/single bandwidth ratio %.2f out of range (%v vs %v)", ratio, b.Bandwidth, a.Bandwidth)
	}
	flow := bonded
	flow.ClientBondMode = netsim.BondFlowHash
	c, err := Run(flow.WithPolicy(irqsched.PolicySourceAware))
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalBytes != a.TotalBytes {
		t.Errorf("flow-hash bond lost data: %v", c.TotalBytes)
	}
}

func TestRandomAccessSlowerThanSequential(t *testing.T) {
	// Random transfer order defeats server readahead, so the same byte
	// budget takes longer — and the SAIs gain survives, since it lives
	// on the client side.
	seq := quickCfg()
	rnd := seq
	rnd.RandomAccess = true
	a, err := Run(seq.WithPolicy(irqsched.PolicySourceAware))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(rnd.WithPolicy(irqsched.PolicySourceAware))
	if err != nil {
		t.Fatal(err)
	}
	if b.TotalBytes != a.TotalBytes {
		t.Fatalf("random mode lost data: %v vs %v", b.TotalBytes, a.TotalBytes)
	}
	if b.Bandwidth >= a.Bandwidth {
		t.Errorf("random %v not slower than sequential %v", b.Bandwidth, a.Bandwidth)
	}
	base, err := Run(rnd.WithPolicy(irqsched.PolicyIrqbalance))
	if err != nil {
		t.Fatal(err)
	}
	if b.Bandwidth <= base.Bandwidth {
		t.Errorf("SAIs gain vanished under random access: %v vs %v", b.Bandwidth, base.Bandwidth)
	}
}

func TestSocketAwarePolicyBetweenBaselines(t *testing.T) {
	// The hint-precision ablation: socket-granular hints keep strips on
	// the consumer's socket (cheap intra-socket migrations only), so
	// sais-socket should land between irqbalance and exact sais.
	cfg := quickCfg()
	cfg.Servers = 16
	irqb, err := Run(cfg.WithPolicy(irqsched.PolicyIrqbalance))
	if err != nil {
		t.Fatal(err)
	}
	sock, err := Run(cfg.WithPolicy(irqsched.PolicySocketAware))
	if err != nil {
		t.Fatal(err)
	}
	sais, err := Run(cfg.WithPolicy(irqsched.PolicySourceAware))
	if err != nil {
		t.Fatal(err)
	}
	if sock.Bandwidth <= irqb.Bandwidth {
		t.Errorf("sais-socket %v not above irqbalance %v", sock.Bandwidth, irqb.Bandwidth)
	}
	if sock.Bandwidth > sais.Bandwidth {
		t.Errorf("sais-socket %v above exact sais %v", sock.Bandwidth, sais.Bandwidth)
	}
	// All its migrations must be intra-socket: under the NUMA price
	// model, its per-line migration cost equals the near cost.
	if sock.RemoteLines == 0 {
		t.Error("sais-socket should still migrate within the socket")
	}
	perLine := float64(sock.BusyByCategory["migration"]) / float64(sock.RemoteLines)
	if perLine > 150 {
		t.Errorf("per-line migration %.0f ns suggests cross-socket traffic (near=140)", perLine)
	}
}

func TestServerCrashAndRecovery(t *testing.T) {
	healthy := quickCfg()
	healthy.RetryTimeout = 100 * units.Millisecond
	healthy.MaxRetries = 20
	base, err := Run(healthy)
	if err != nil {
		t.Fatal(err)
	}

	crash := healthy
	crash.Faults = &faults.Plan{Timeline: []faults.TimelineEvent{
		{At: 20 * units.Millisecond, Kind: faults.KindCrash, Server: 2},
		{At: 250 * units.Millisecond, Kind: faults.KindRevive, Server: 2},
	}}
	res, err := Run(crash)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != base.TotalBytes {
		t.Errorf("crash lost data despite retries: %v vs %v", res.TotalBytes, base.TotalBytes)
	}
	if res.Duration <= base.Duration {
		t.Errorf("outage did not slow the run: %v vs %v", res.Duration, base.Duration)
	}
	if res.Retries == 0 {
		t.Error("no retries recorded around the outage")
	}
}

func TestPermanentCrashFailsTransfers(t *testing.T) {
	cfg := quickCfg()
	cfg.BytesPerProc = 2 * units.MiB
	cfg.RetryTimeout = 50 * units.Millisecond
	cfg.MaxRetries = 2
	cfg.Faults = &faults.Plan{Timeline: []faults.TimelineEvent{{At: 0, Kind: faults.KindCrash, Server: 0}}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedTransfers == 0 {
		t.Error("a permanently dead server should fail transfers")
	}
}

func TestBottleneckGauges(t *testing.T) {
	// At 8 servers the disks work hard; at a 1-Gbit NIC the client link
	// saturates. The gauges must point at the right resource.
	diskBound := quickCfg()
	diskBound.Servers = 8
	a, err := Run(diskBound)
	if err != nil {
		t.Fatal(err)
	}
	if a.DiskBusy <= 0.3 {
		t.Errorf("8-server run disk busy = %.2f; expected substantial disk pressure", a.DiskBusy)
	}
	nicBound := quickCfg()
	nicBound.Servers = 32
	nicBound.ClientNICRate = units.Gigabit
	b, err := Run(nicBound)
	if err != nil {
		t.Fatal(err)
	}
	if b.ClientNICBusy <= 0.7 {
		t.Errorf("1-Gbit run NIC busy = %.2f; expected a saturated link", b.ClientNICBusy)
	}
	if b.DiskBusy >= a.DiskBusy {
		t.Errorf("32-server disks (%.2f) busier than 8-server disks (%.2f)", b.DiskBusy, a.DiskBusy)
	}
	for _, g := range []float64{a.ClientNICBusy, a.DiskBusy, a.ServerCPUBusy} {
		if g < 0 || g > 1.01 {
			t.Errorf("gauge %v outside [0,1]", g)
		}
	}
}

func TestLatencyPercentiles(t *testing.T) {
	cfg := quickCfg()
	cfg.Servers = 16
	base, err := Run(cfg.WithPolicy(irqsched.PolicyIrqbalance))
	if err != nil {
		t.Fatal(err)
	}
	sais, err := Run(cfg.WithPolicy(irqsched.PolicySourceAware))
	if err != nil {
		t.Fatal(err)
	}
	if base.LatencyP50 <= 0 || base.LatencyP99 < base.LatencyP50 {
		t.Errorf("percentiles inconsistent: p50=%v p99=%v", base.LatencyP50, base.LatencyP99)
	}
	if sais.LatencyP50 >= base.LatencyP50 {
		t.Errorf("SAIs median latency %v not below irqbalance %v", sais.LatencyP50, base.LatencyP50)
	}
	// Writes report no read latencies.
	w := cfg
	w.WriteWorkload = true
	wres, err := Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if wres.LatencyP50 != 0 {
		t.Errorf("write workload reported read latency %v", wres.LatencyP50)
	}
}

func TestL3SoftensEvictionCost(t *testing.T) {
	// With the Opteron's shared L3 enabled, strips evicted from a
	// private L2 before consumption come back from the L3 instead of
	// DRAM — SAIs (whose large transfers self-evict) gains most.
	base := quickCfg()
	base.Servers = 16
	noL3, err := Run(base.WithPolicy(irqsched.PolicySourceAware))
	if err != nil {
		t.Fatal(err)
	}
	withL3 := base
	withL3.L3PerSocket = 6 * units.MiB
	l3, err := Run(withL3.WithPolicy(irqsched.PolicySourceAware))
	if err != nil {
		t.Fatal(err)
	}
	if l3.Bandwidth <= noL3.Bandwidth {
		t.Errorf("L3 did not help SAIs: %v vs %v", l3.Bandwidth, noL3.Bandwidth)
	}
	if l3.MemoryLines >= noL3.MemoryLines {
		t.Errorf("memory lines %d not reduced from %d", l3.MemoryLines, noL3.MemoryLines)
	}
	if l3.TotalBytes != noL3.TotalBytes {
		t.Errorf("L3 changed delivered bytes: %v vs %v", l3.TotalBytes, noL3.TotalBytes)
	}
}

func TestLongRunSoak(t *testing.T) {
	// A longer steady-state run: rates must stabilize (the second half
	// is no slower than 70% of the full-run average) and every counter
	// must stay self-consistent at scale.
	if testing.Short() {
		t.Skip("soak")
	}
	cfg := DefaultConfig()
	cfg.Servers = 16
	cfg.BytesPerProc = 128 * units.MiB
	cfg.Policy = irqsched.PolicySourceAware
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != 256*units.MiB {
		t.Fatalf("bytes = %v", res.TotalBytes)
	}
	if res.LineMisses != res.RemoteLines+res.MemoryLines {
		t.Error("miss books do not balance at scale")
	}
	if res.RingDrops != 0 || res.FailedTransfers != 0 {
		t.Errorf("drops=%d failed=%d in a clean soak", res.RingDrops, res.FailedTransfers)
	}
	rate := float64(res.Bandwidth) / 1e6
	if rate < 150 || rate > 400 {
		t.Errorf("steady-state rate %.1f MB/s outside the calibrated band", rate)
	}
	if res.LatencyP99 > 20*res.LatencyP50 {
		t.Errorf("latency tail blew up: p50=%v p99=%v", res.LatencyP50, res.LatencyP99)
	}
}

func TestConfigRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Servers = 48
	cfg.Policy = irqsched.PolicySourceAware
	cfg.TransferSize = 2 * units.MiB
	cfg.SharedFiles = true
	cfg.Costs.RemoteLine = 250
	path := t.TempDir() + "/cfg.json"
	if err := SaveConfig(path, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Servers != 48 || got.Policy != irqsched.PolicySourceAware ||
		got.TransferSize != 2*units.MiB || !got.SharedFiles ||
		got.Costs.RemoteLine != 250 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	// The loaded config runs identically to the original.
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(got)
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.UnhaltedCycles != b.UnhaltedCycles {
		t.Error("loaded config diverged from original")
	}
}

// errWriter fails every write — the io.Writer a full disk looks like.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWriteConfigPropagatesWriterError(t *testing.T) {
	if err := WriteConfig(errWriter{}, DefaultConfig()); err == nil {
		t.Error("WriteConfig to a failing writer returned nil")
	}
}

func TestSaveConfigReportsWriteFailure(t *testing.T) {
	// /dev/full accepts the open and fails every write with ENOSPC —
	// the exact failure SaveConfig used to swallow via `defer f.Close()`.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	if err := SaveConfig("/dev/full", DefaultConfig()); err == nil {
		t.Error("SaveConfig to a full disk returned nil")
	}
}

func TestReadConfigRejectsGarbage(t *testing.T) {
	if _, err := ReadConfig(strings.NewReader(`{"Servers": 0}`)); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := ReadConfig(strings.NewReader(`{"NoSuchField": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ReadConfig(strings.NewReader(`not json`)); err == nil {
		t.Error("non-JSON accepted")
	}
	// Partial configs inherit defaults.
	got, err := ReadConfig(strings.NewReader(`{"Servers": 32}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Servers != 32 || got.CoresPerClient != 8 {
		t.Errorf("partial config = %+v", got)
	}
}

func TestStripingBalance(t *testing.T) {
	// Round-robin striping with aligned transfers must load every
	// server identically.
	cfg := quickCfg()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ServerBytes) != cfg.Servers {
		t.Fatalf("server bytes entries = %d", len(res.ServerBytes))
	}
	first := res.ServerBytes[0]
	if first == 0 {
		t.Fatal("server 0 served nothing")
	}
	for i, b := range res.ServerBytes {
		if b != first {
			t.Errorf("server %d served %v, server 0 served %v — striping imbalance", i, b, first)
		}
	}
}

func TestWriteLatencyPercentiles(t *testing.T) {
	cfg := quickCfg()
	cfg.WriteWorkload = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteLatencyP50 <= 0 || res.WriteLatencyP99 < res.WriteLatencyP50 {
		t.Errorf("write percentiles: p50=%v p99=%v", res.WriteLatencyP50, res.WriteLatencyP99)
	}
	if res.LatencyP50 != 0 {
		t.Errorf("read latency %v reported for a write workload", res.LatencyP50)
	}
}

func TestCorruptionWithRetries(t *testing.T) {
	cfg := quickCfg()
	cfg.Faults = &faults.Plan{Corrupt: 0.01}
	cfg.RetryTimeout = 150 * units.Millisecond
	cfg.MaxRetries = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HeaderDrops == 0 {
		t.Error("1% corruption produced no header drops")
	}
	if res.TotalBytes != 16*units.MiB {
		t.Errorf("delivered %v with retries, want all 16MiB", res.TotalBytes)
	}
	bad := cfg
	bad.Faults = &faults.Plan{Corrupt: 1}
	if _, err := Run(bad); err == nil {
		t.Error("corrupt rate 1.0 accepted")
	}
}

func TestNetDropsReported(t *testing.T) {
	cfg := quickCfg()
	cfg.Faults = &faults.Plan{Loss: 0.02}
	cfg.RetryTimeout = 150 * units.Millisecond
	cfg.MaxRetries = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NetDrops == 0 {
		t.Error("fabric drops not surfaced in the result")
	}
}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, quickCfg())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if res.Duration != 0 {
		t.Errorf("pre-cancelled run simulated %v, want 0", res.Duration)
	}
}

// pollLimitCtx cancels itself after its Err method has been polled a
// fixed number of times — a deterministic stand-in for a user hitting
// Ctrl-C mid-simulation.
type pollLimitCtx struct {
	context.Context
	mu   sync.Mutex
	left int
}

func (c *pollLimitCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

func TestRunContextCancelledMidRun(t *testing.T) {
	full, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &pollLimitCtx{Context: parent, left: 8}
	res, err := RunContext(ctx, quickCfg())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("interrupted run returned no partial result")
	}
	if res.Duration <= 0 || res.Duration >= full.Duration {
		t.Errorf("interrupted run simulated %v; want strictly inside (0, %v)", res.Duration, full.Duration)
	}
}

func TestRunContextCompleteRunMatchesRun(t *testing.T) {
	plain, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := RunContext(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Duration != withCtx.Duration || plain.Bandwidth != withCtx.Bandwidth ||
		plain.LineAccesses != withCtx.LineAccesses || plain.UnhaltedCycles != withCtx.UnhaltedCycles {
		t.Errorf("context plumbing changed the simulation: %+v vs %+v", plain, withCtx)
	}
}

// spanTestCfg is a small lossless run with a known strip population:
// 2 procs x 2MiB / 1MiB transfers striped at 64KiB over 4 servers
// = 64 strips, no retries, no faults — every strip completes exactly
// one lifecycle chain.
func spanTestCfg() Config {
	cfg := DefaultConfig()
	cfg.Servers = 4
	cfg.BytesPerProc = 2 * units.MiB
	cfg.TransferSize = units.MiB
	return cfg
}

func TestRunSpannedRecordsFullLifecycle(t *testing.T) {
	res, spans, err := RunSpannedContext(context.Background(), spanTestCfg())
	if err != nil {
		t.Fatal(err)
	}
	const wantStrips = 64 // 2 procs x 2MiB/64KiB strips
	if res.StripCount != wantStrips {
		t.Fatalf("StripCount = %d, want %d", res.StripCount, wantStrips)
	}
	if got := spans.OpenCount(); got != 0 {
		t.Errorf("%d spans still open after a lossless run", got)
	}
	if got := spans.Orphans(); got != 0 {
		t.Errorf("%d orphan End calls", got)
	}
	// Every phase appears exactly once per strip.
	perPhase := make(map[trace.Phase]int)
	chains := make(map[[3]int][]trace.Span) // (client, tag-less strip key) -> spans
	for _, s := range spans.Spans() {
		perPhase[s.Phase]++
		k := [3]int{s.Client, int(s.Tag), s.Strip}
		chains[k] = append(chains[k], s)
		if s.End < s.Start {
			t.Errorf("span %v ends before it starts: %v < %v", s.Phase, s.End, s.Start)
		}
	}
	for p := trace.PhaseIssue; p < trace.NumPhases; p++ {
		if perPhase[p] != wantStrips {
			t.Errorf("phase %v has %d spans, want %d", p, perPhase[p], wantStrips)
		}
	}
	// Each strip's chain is gap-free through the handoff points:
	// issue.End == service.Start, service.End == fabric.Start,
	// fabric.End == ring.Start, ring.End == steer.Start,
	// steer.End == irq.Start.
	for k, chain := range chains {
		by := make(map[trace.Phase]trace.Span)
		for _, s := range chain {
			by[s.Phase] = s
		}
		links := [][2]trace.Phase{
			{trace.PhaseIssue, trace.PhaseService},
			{trace.PhaseService, trace.PhaseFabric},
			{trace.PhaseFabric, trace.PhaseRing},
			{trace.PhaseRing, trace.PhaseSteer},
			{trace.PhaseSteer, trace.PhaseIRQ},
		}
		for _, l := range links {
			a, aok := by[l[0]]
			b, bok := by[l[1]]
			if !aok || !bok {
				t.Fatalf("strip %v missing phase %v or %v", k, l[0], l[1])
			}
			if a.End != b.Start {
				t.Errorf("strip %v: %v.End %v != %v.Start %v", k, l[0], a.End, l[1], b.Start)
			}
		}
		// Consumption happens at or after IRQ completion.
		if by[trace.PhaseConsume].Start < by[trace.PhaseIRQ].End {
			t.Errorf("strip %v consumed before its IRQ finished", k)
		}
	}
}

func TestRunSpannedChromeExport(t *testing.T) {
	_, spans, err := RunSpannedContext(context.Background(), spanTestCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := spans.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var complete int
	lastTS := make(map[[2]int]float64)
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			complete++
			if e.Dur < 0 {
				t.Errorf("event %q has negative duration %v", e.Name, e.Dur)
			}
			k := [2]int{e.PID, e.TID}
			if e.TS < lastTS[k] {
				t.Errorf("track %v not monotonic: %v after %v", k, e.TS, lastTS[k])
			}
			lastTS[k] = e.TS
		case "M":
		default:
			t.Errorf("unexpected event phase %q", e.Ph)
		}
	}
	// 64 strips x 7 lifecycle phases, plus the client core-activity spans.
	if complete < 64*7 {
		t.Errorf("%d complete events, want at least %d", complete, 64*7)
	}
}
