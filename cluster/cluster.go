// Package cluster is the public API of the SAIs reproduction: it
// assembles a complete simulated parallel-I/O cluster — client nodes
// (multi-core CPU, private caches, NIC, APICs, interrupt-scheduling
// policy), a PVFS-style metadata server and I/O servers, and a switched
// fabric — runs an IOR-like read workload over it, and reports the
// paper's four metrics: bandwidth, L2 cache miss rate, CPU utilization,
// and CPU_CLK_UNHALTED.
//
// A minimal comparison of the paper's two main policies:
//
//	cfg := cluster.DefaultConfig()
//	cfg.Servers = 16
//	base, _ := cluster.Run(cfg.WithPolicy(irqsched.PolicyIrqbalance))
//	sais, _ := cluster.Run(cfg.WithPolicy(irqsched.PolicySourceAware))
//	fmt.Println(metrics.Speedup(float64(sais.Bandwidth), float64(base.Bandwidth)))
package cluster

import (
	"context"
	"fmt"

	"sais/internal/apic"
	"sais/internal/cache"
	"sais/internal/client"
	"sais/internal/cpu"
	"sais/internal/disk"
	"sais/internal/faults"
	"sais/internal/flowsim"
	"sais/internal/irqsched"
	"sais/internal/metrics"
	"sais/internal/netsim"
	"sais/internal/pfs"
	"sais/internal/rng"
	"sais/internal/shard"
	"sais/internal/sim"
	"sais/internal/trace"
	"sais/internal/units"
	"sais/internal/workload"
)

// Node-id layout of the simulated cluster.
const (
	mdsNode         netsim.NodeID = 90
	firstClientNode netsim.NodeID = 1
	firstServerNode netsim.NodeID = 100
)

// MinStripSize is the smallest strip Validate accepts: one 4 KiB page.
// Every strip is a request, a frame train and an interrupt, so events
// per byte grow as the strip shrinks: 1-byte strips would turn the
// default 64 MiB run into 67 million strips. The smallest strip any
// committed study uses is 16 KiB.
const MinStripSize = 4 * units.KiB

// Config describes one experiment run. DefaultConfig returns the
// paper's testbed shape; the evaluation harness varies the fields each
// figure sweeps.
type Config struct {
	// Scheduling policy under test on every client.
	Policy irqsched.PolicyKind

	// Cluster shape.
	Clients        int
	Servers        int
	CoresPerClient int

	// Hardware rates. ClientNICRate is the aggregate client rate; with
	// ClientNICPorts > 1 it is split over that many bonded ports (the
	// testbed's "3-Gigabit NIC" is three bonded 1-Gigabit BCM5715C
	// ports) using ClientBondMode.
	ClientNICRate  units.Rate
	ClientNICPorts int
	ClientBondMode netsim.BondMode
	ServerNICRate  units.Rate
	CachePerCore   units.Bytes
	FabricLatency  units.Time

	// File system. StripSize is at least MinStripSize.
	StripSize units.Bytes

	// Workload (per client).
	ProcsPerClient int
	TransferSize   units.Bytes
	BytesPerProc   units.Bytes
	// SharedFiles makes every client read the same files (IOR's
	// shared-file mode) so the servers' buffer caches serve re-reads —
	// the multi-client regime of Figure 12. Default: file per process.
	SharedFiles bool
	// RandomAccess permutes transfer order per process (IOR's random
	// option) — an ablation that defeats server readahead.
	RandomAccess bool
	// WriteWorkload runs parallel writes instead of reads — the case
	// the paper's §I excludes because returned packets (small acks)
	// carry no data to any particular core. Useful to verify that the
	// policies tie on writes.
	WriteWorkload bool

	// Knobs for ablations.
	Costs              client.CostModel
	Disk               disk.Config
	MigrateDuringBlock float64
	CoalesceFrames     int
	CoalesceDelay      units.Time
	IrqbalancePeriod   units.Time
	CurrentCoreHint    bool // the paper's policy (ii): steer to the process's current core
	// TimesliceQuantum enables round-robin timeslicing of process work
	// on client cores (0 = run to completion).
	TimesliceQuantum units.Time
	// L3PerSocket attaches a shared per-socket victim L3 of this size to
	// each client (0 = disabled, the calibrated baseline).
	L3PerSocket units.Bytes
	// RetryTimeout enables the client's lost-frame recovery: transfers
	// not complete after this long re-issue their missing parts, up to
	// MaxRetries times. Zero disables (lossless fabric by default).
	RetryTimeout units.Time
	MaxRetries   int
	// RetryBackoff grows the retry interval exponentially per attempt
	// (0 = the default factor 2, 1 = fixed interval), capped at
	// 8 × RetryTimeout. RetryJitter shrinks each delay by a
	// deterministic derived fraction in [0, RetryJitter) so clients
	// desynchronize their re-issues (0 = the default 0.1, negative =
	// disabled). See client.Config.
	RetryBackoff float64
	RetryJitter  float64
	// TransferDeadline bounds each transfer's total lifetime: at the
	// deadline the strips in hand are consumed and the operation
	// completes as a typed partial result instead of retrying forever
	// or abandoning everything. 0 disables; requires RetryTimeout > 0.
	TransferDeadline units.Time
	// RandomClients makes the first N clients use random access order
	// while the rest stay sequential — a mixed-tenant workload for
	// scenarios. RandomAccess=true still randomizes every client.
	RandomClients int

	// Hybrid-fidelity workload (DESIGN.md §14). ForegroundClients is an
	// explicit alias for Clients naming the full-fidelity measured
	// cohort; when positive it overrides Clients. BackgroundUsers adds
	// an analytic background population — arrival-rate flow processes
	// feeding fluid queues at every server NIC/CPU and (for colocated
	// tenants) every foreground client NIC — whose load slows the
	// foreground without materializing frames. BackgroundUsers > 0
	// requires a TenantMix whose shares sum to 1. The fluid queues
	// integrate in 1 ms steps (rateUpdate).
	ForegroundClients int                   `json:",omitempty"`
	BackgroundUsers   int                   `json:",omitempty"`
	TenantMix         []flowsim.TenantShare `json:",omitempty"`

	// Faults is the declarative fault plan applied to the run: link
	// loss/corruption, per-server stall distributions, and a timeline
	// of crashes, revivals, link degradation, and interrupt storms.
	// Combine it with RetryTimeout to observe recovery. Nil means a
	// healthy cluster.
	Faults *faults.Plan

	// Shards partitions the cluster's nodes round-robin over this many
	// independent event engines, run under conservative synchronization
	// (internal/shard) with the fabric latency as lookahead. 0 or 1 is
	// the classic single-engine run. Results are bit-identical for any
	// shard count; Shards > 1 requires FabricLatency > 0 (zero
	// lookahead admits no safe horizon).
	Shards int
	// Workers is kept so existing configs and scenario files still
	// load; Validate rejects a negative value.
	//
	// Deprecated: ignored; shard rounds run on the calling goroutine.
	Workers int

	Seed uint64

	// Progress, when set, is invoked at the engine's stop-poll cadence
	// (every few dozen events; between rounds when sharded) with the
	// events fired so far, the events still live in the queue, and the
	// simulated clock — the minimum shard clock on sharded runs. The
	// live count excludes cancelled timers — retry- and fault-heavy
	// runs cancel timers in bulk, and counting those corpses would
	// inflate the denominator of any progress estimate. It also counts
	// cross-shard messages awaiting delivery. Not serialized with the
	// config.
	//saisvet:nilhook
	Progress func(fired uint64, live int, now units.Time) `json:"-"`
}

// DefaultConfig is the paper's single-client testbed: 8 cores at
// 2.7 GHz with 512 KiB private L2, a 3-Gigabit client NIC, 3-Gigabit
// server NICs (three bonded 1-Gigabit ports), 64 KiB strips, and two
// IOR processes each reading 32 MiB in 1 MiB transfers. The per-proc
// byte budget is scaled down from the paper's 10 GB — rates converge
// long before that, and the simulator reports rates, not totals.
func DefaultConfig() Config {
	return Config{
		Policy:           irqsched.PolicyIrqbalance,
		Clients:          1,
		Servers:          16,
		CoresPerClient:   8,
		ClientNICRate:    3 * units.Gigabit,
		ServerNICRate:    3 * units.Gigabit,
		CachePerCore:     512 * units.KiB,
		FabricLatency:    20 * units.Microsecond,
		StripSize:        64 * units.KiB,
		ProcsPerClient:   2,
		TransferSize:     units.MiB,
		BytesPerProc:     32 * units.MiB,
		Costs:            client.DefaultCosts(),
		Disk:             disk.DefaultConfig(),
		CoalesceFrames:   1,
		IrqbalancePeriod: 10 * units.Millisecond,
		Seed:             1,
	}
}

// WithPolicy returns a copy of c under a different policy — the usual
// A/B pattern of the experiments.
func (c Config) WithPolicy(p irqsched.PolicyKind) Config {
	c.Policy = p
	return c
}

// normalized resolves the hybrid-mode aliases: ForegroundClients, when
// positive, is the authoritative full-fidelity cohort size and
// overrides Clients. Applied (idempotently) at the top of Validate,
// NodeLayout, and run so every consumer sees one canonical shape.
func (c Config) normalized() Config {
	if c.ForegroundClients > 0 {
		c.Clients = c.ForegroundClients
	}
	return c
}

// rateUpdate is the fluid integration step of the hybrid background
// population.
const rateUpdate = units.Millisecond

// Validate checks the configuration: the cluster-level fields here,
// then each sub-config run builds through its own package's check.
// Client configs differ only in node id and seeds, so client 0's
// stands for all of them.
func (c Config) Validate() error {
	c = c.normalized()
	switch {
	case c.Clients <= 0:
		return fmt.Errorf("cluster: clients %d must be positive", c.Clients)
	case c.Servers <= 0:
		return fmt.Errorf("cluster: servers %d must be positive", c.Servers)
	case c.StripSize < MinStripSize:
		return fmt.Errorf("cluster: strip size %v below the %v minimum", c.StripSize, MinStripSize)
	case c.TransferSize < c.StripSize:
		return fmt.Errorf("cluster: transfer %v below strip %v", c.TransferSize, c.StripSize)
	case c.RandomClients < 0 || c.RandomClients > c.Clients:
		return fmt.Errorf("cluster: random clients %d outside [0, %d]", c.RandomClients, c.Clients)
	case c.Shards < 0:
		return fmt.Errorf("cluster: negative shard count %d", c.Shards)
	case c.Workers < 0:
		return fmt.Errorf("cluster: negative worker count %d", c.Workers)
	case c.FabricLatency < 0:
		return fmt.Errorf("cluster: negative fabric latency %v", c.FabricLatency)
	case c.Shards > 1 && c.FabricLatency <= 0:
		return fmt.Errorf("cluster: sharded execution needs a positive fabric latency (lookahead)")
	case c.ClientNICPorts < 0:
		return fmt.Errorf("cluster: negative client NIC ports %d", c.ClientNICPorts)
	case c.ForegroundClients < 0:
		return fmt.Errorf("cluster: negative foreground clients %d", c.ForegroundClients)
	case c.BackgroundUsers < 0:
		return fmt.Errorf("cluster: negative background users %d", c.BackgroundUsers)
	}
	// Hybrid tenant mixes are validated uniformly — the same typed
	// rejection at every shard count, like degrade-link<1 — so a
	// single-engine run can never accept a config a sharded run of the
	// same cluster would refuse. A mix without background users is
	// checked too: it is almost certainly a mistake worth surfacing.
	if c.BackgroundUsers > 0 || len(c.TenantMix) > 0 {
		if err := flowsim.ValidateMix(c.TenantMix); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
	}
	srv := c.serverConfig()
	for _, check := range []func() error{
		c.clientConfig(0, firstClientNode, mdsNode).Validate,
		c.workloadConfig(0).Validate,
		srv.NIC.Validate,
		srv.Disk.Validate,
	} {
		if err := check(); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
	}
	return c.Faults.Validate(c.Servers, c.Clients)
}

// serverConfig is the pfs.ServerConfig run builds for every I/O server.
func (c Config) serverConfig() pfs.ServerConfig {
	scfg := pfs.DefaultServerConfig(c.ServerNICRate)
	scfg.Disk = c.Disk
	return scfg
}

// clientConfig is the client.Config run builds for client i at fabric
// id node, with the metadata server at mds.
func (c Config) clientConfig(i int, node, mds netsim.NodeID) client.Config {
	ccfg := client.DefaultConfig(node, c.ClientNICRate, c.Policy)
	ccfg.Cores = c.CoresPerClient
	ccfg.CachePerCore = c.CachePerCore
	ccfg.Costs = c.Costs
	ccfg.MigrateDuringBlock = c.MigrateDuringBlock
	ccfg.CurrentCoreHint = c.CurrentCoreHint
	ccfg.RetryTimeout = c.RetryTimeout
	ccfg.MaxRetries = c.MaxRetries
	ccfg.RetryBackoff = c.RetryBackoff
	ccfg.RetryJitter = c.RetryJitter
	ccfg.TransferDeadline = c.TransferDeadline
	ccfg.TimesliceQuantum = c.TimesliceQuantum
	ccfg.L3PerSocket = c.L3PerSocket
	ccfg.IrqbalancePeriod = c.IrqbalancePeriod
	ccfg.MDS = mds
	// Child seeds are derived, not offset: c.Seed+i would make run seed
	// S node i draw the same stream as run seed S+1 node i-1,
	// correlating "independent" repeats (see rng.Derive).
	ccfg.Seed = rng.Derive(c.Seed, uint64(2*i))
	if c.ClientNICPorts > 1 {
		ccfg.NIC.Ports = c.ClientNICPorts
		ccfg.NIC.Rate = c.ClientNICRate / units.Rate(c.ClientNICPorts)
	}
	ccfg.NIC.Bond = c.ClientBondMode // a single port ignores it
	ccfg.NIC.CoalesceFrames = max(c.CoalesceFrames, 1)
	ccfg.NIC.CoalesceDelay = c.CoalesceDelay
	return ccfg
}

// workloadConfig is the workload.IORConfig run builds for client i.
func (c Config) workloadConfig(i int) workload.IORConfig {
	firstFile := pfs.FileID(1 + i*c.ProcsPerClient)
	if c.SharedFiles {
		firstFile = 1
	}
	return workload.IORConfig{
		Procs:        c.ProcsPerClient,
		TransferSize: c.TransferSize,
		BytesPerProc: c.BytesPerProc,
		FirstFile:    firstFile,
		Stagger:      50 * units.Microsecond,
		Write:        c.WriteWorkload,
		RandomAccess: c.RandomAccess || i < c.RandomClients,
		Seed:         rng.Derive(c.Seed, uint64(2*i+1)),
	}
}

// NodeLayout returns the fabric node ids the run will assign: the
// client ids, the server ids (index-aligned with fault-plan server
// indices), and the MDS id. It is the single source of the layout rule
// run() builds from, exported so outside observers — the scenario
// invariant checker mapping fault-plan server indices onto the node
// ids that appear in trace spans — agree with the simulator exactly.
func (c Config) NodeLayout() (clients, servers []netsim.NodeID, mds netsim.NodeID) {
	c = c.normalized()
	// Clients sit at 1..Clients, MDS at 90, servers from 100. Clusters
	// with ≥ 90 clients outgrow the classic constants, so the MDS and
	// the server block shift past the client range; smaller clusters
	// keep the historical ids (and byte-identical results).
	mds = mdsNode
	firstServer := firstServerNode
	if firstClientNode+netsim.NodeID(c.Clients) > mdsNode {
		mds = firstClientNode + netsim.NodeID(c.Clients)
		firstServer = mds + 10
	}
	clients = make([]netsim.NodeID, c.Clients)
	for i := range clients {
		clients[i] = firstClientNode + netsim.NodeID(i)
	}
	servers = make([]netsim.NodeID, c.Servers)
	for i := range servers {
		servers[i] = firstServer + netsim.NodeID(i)
	}
	return clients, servers, mds
}

// Result is the roll-up of one run.
//
//saisvet:jsonstable sig=26de1777
type Result struct {
	Policy   string
	Duration units.Time

	// Bandwidth (the Figure 5/12/14 metric): aggregate consumed bytes
	// over the makespan.
	TotalBytes units.Bytes
	Bandwidth  units.Rate
	PerClient  []units.Rate

	// Cache behaviour (Figures 6/7).
	CacheMissRate float64
	LineAccesses  uint64
	LineMisses    uint64
	RemoteLines   uint64 // cache-to-cache migrations (cost M path)
	MemoryLines   uint64

	// CPU behaviour (Figures 8-11), aggregated over client cores.
	CPUUtilization float64
	UnhaltedCycles units.Cycles
	BusyByCategory map[string]units.Time

	// Interrupt path.
	Interrupts  uint64
	HintedIRQs  uint64 // interrupts delivered to the core their aff_core_id named
	RingDrops   uint64
	NetDrops    uint64 // frames lost in the fabric (loss injection)
	HeaderDrops uint64 // frames rejected by IPv4 validation (corruption)

	// Packet-reordering metric (the Wu et al. Flow Director pathology):
	// strip frames whose per-(transfer, server) sequence went backwards
	// at softirq completion, and the deepest regression seen. Both
	// omitempty — zero for every in-order policy — so classic-run JSON
	// stays byte-identical.
	ReorderedFrames uint64 `json:",omitempty"`
	ReorderDepthMax uint64 `json:",omitempty"`

	// PolicyStats carries the steering policy's self-describing
	// counters (irqsched.CounterReporter), summed over clients. Only
	// the literature-baseline policies export counters, so it is empty
	// (and omitted from JSON) for the classic comparison set.
	PolicyStats map[string]uint64 `json:",omitempty"`

	// Recovery path (loss injection with retries enabled).
	Retries         uint64
	FailedTransfers uint64

	// Read-transfer latency percentiles across all clients (zero for
	// write workloads), and the write-path equivalents. Abandoned
	// operations contribute their time-to-failure, so injected loss
	// cannot silently improve the distribution.
	LatencyMean     units.Time
	LatencyP50      units.Time
	LatencyP99      units.Time
	WriteLatencyP50 units.Time
	WriteLatencyP99 units.Time

	// Per-strip issue→arrival latency distribution, merged over all
	// clients: how long each individual strip took from the read() that
	// requested it to its softirq deposit into a core's cache. Finer
	// grained than the transfer latencies above — a transfer spans many
	// strips — and the tail columns the experiment tables report.
	StripCount       uint64
	StripLatencyMean units.Time
	StripLatencyP50  units.Time
	StripLatencyP95  units.Time
	StripLatencyP99  units.Time

	// Hybrid-mode accounting: analytic background traffic offered to,
	// drained by, and still queued at the fluid stations over the run.
	// The invariant checker enforces offered = served + backlog. All
	// omitempty so classic-run JSON stays byte-identical.
	BackgroundOfferedBytes units.Bytes `json:",omitempty"`
	BackgroundServedBytes  units.Bytes `json:",omitempty"`
	BackgroundBacklogBytes units.Bytes `json:",omitempty"`

	// Faults is the degraded-mode rollup: what the fault injector did
	// to the run and what the recovery paths did about it. All zero
	// for a healthy cluster.
	Faults FaultReport

	// ServerBytes is the payload each I/O server returned — striping
	// balance means these should be near-equal for aligned workloads.
	ServerBytes []units.Bytes

	// Gauges locate the bottleneck: busy fractions of the main shared
	// resources over the run (the §III regime question — NIC-bound,
	// disk-bound, or client-bound).
	ClientNICBusy float64 // mean client NIC ingress busy fraction
	DiskBusy      float64 // mean server disk busy fraction
	ServerCPUBusy float64 // mean server CPU busy fraction
}

// FaultReport is the Result section accounting for injected faults and
// the recovery they triggered.
//
//saisvet:jsonstable sig=3f2fa37c
type FaultReport struct {
	// Wire damage: frames dropped in the fabric (loss injection or
	// unroutable), frames whose headers were corrupted in flight, and
	// corrupted frames rejected by client IPv4 validation.
	FramesDropped   uint64
	FramesCorrupted uint64
	HeaderDrops     uint64
	// RingDrops are frames lost to full client rx rings — overload
	// loss the retry path must also absorb.
	RingDrops uint64
	// Recovery-path activity: strips re-requested or re-sent by
	// retries, and late duplicates discarded on arrival.
	StripsRetried   uint64
	DuplicateStrips uint64
	// FailedOps counts transfers abandoned after MaxRetries; PartialOps
	// counts transfers that degraded gracefully at their
	// TransferDeadline, delivering PartialBytes of their payload.
	// OpErrors carries the typed per-operation record of both kinds.
	FailedOps uint64
	// The partial counters are omitempty so healthy-run JSON stays
	// byte-identical to pre-deadline versions of the schema.
	PartialOps   uint64      `json:",omitempty"`
	PartialBytes units.Bytes `json:",omitempty"`
	OpErrors     []client.OpError
	// Server-side injection: requests delayed by stall injection and
	// crash/revive accounting. ServerDowntime is indexed by server;
	// RecoveryTime is the run time remaining after the last revive —
	// how long the cluster needed to finish once healthy again.
	StallsInjected uint64
	Crashes        int
	ServerDowntime []units.Time
	LastReviveAt   units.Time
	RecoveryTime   units.Time
	// StormFrames is the junk-frame count delivered by interrupt
	// storms.
	StormFrames uint64
	// Goodput vs offered load: bytes the workload asked for vs bytes
	// actually delivered to (or acknowledged for) the applications.
	OfferedBytes units.Bytes
	GoodputBytes units.Bytes
}

// Run executes one experiment and returns its metrics. Runs are
// deterministic functions of (Config, Seed).
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation and deadline support: the
// simulator polls ctx at event-loop granularity and stops promptly
// once it is done. A cancelled run returns ctx.Err() together with the
// metrics collected up to the stopping point, so callers can still
// report partial results; completed runs return a nil error.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return run(ctx, cfg, nil)
}

// RunSpannedContext is RunContext with per-strip lifecycle tracing:
// every client, core and server records into one SpanLog, returned for
// Chrome-trace export (cmd/saisim -trace-out), last-N rendering and the
// scenario invariant checker.
func RunSpannedContext(ctx context.Context, cfg Config) (*Result, *trace.SpanLog, error) {
	log := trace.NewSpanLog()
	res, err := run(ctx, cfg, log)
	return res, log, err
}

// run is the shared body of RunContext and RunSpannedContext; spans,
// when non-nil, is attached to every client node, core and server
// before the workload starts.
func run(ctx context.Context, cfg Config, spans *trace.SpanLog) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	// Shard layout: nodes are partitioned round-robin over per-shard
	// engines and fabrics. shards == 1 is the classic single-engine
	// path (engines[0] drives everything, no executor).
	// Component construction below is identical in both cases and in
	// the same global order — per-component rng streams are Split off
	// the root in construction order, so the draws every component
	// receives are layout-invariant.
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	if max := cfg.Clients + cfg.Servers; shards > max {
		shards = max
	}
	// Node-id layout (see NodeLayout): clients at 1..Clients, MDS at
	// 90, servers from 100, shifting past the client range when it
	// outgrows the classic constants. A fault plan's storm node sits
	// just past the last server, so it never collides with a real node;
	// the fabrics' id space ends there.
	clientIDs, servers, mds := cfg.NodeLayout()
	stormNode := servers[cfg.Servers-1] + 1
	ids := int(stormNode) + 1
	engines := make([]*sim.Engine, shards)
	fabrics := make([]*netsim.Fabric, shards)
	for i := range engines {
		engines[i] = sim.NewEngine()
		fabrics[i] = netsim.NewFabric(engines[i], cfg.FabricLatency, ids)
	}
	// The MDS (and a storm's ghost NIC) live on shard 0.
	eng, fab := engines[0], fabrics[0]
	clientShard := func(i int) int { return i % shards }
	serverShard := func(i int) int { return i % shards }
	root := rng.New(cfg.Seed)
	layout := pfs.Layout{StripSize: cfg.StripSize, Servers: servers, Size: cfg.BytesPerProc}
	pfs.NewMetadataServer(eng, fab, mds, pfs.DefaultMetadataConfig(units.Gigabit),
		func(pfs.FileID) pfs.Layout { return layout })

	srvs := make([]*pfs.Server, cfg.Servers)
	scfg := cfg.serverConfig()
	for i := range srvs {
		srvs[i] = pfs.NewServer(engines[serverShard(i)], fabrics[serverShard(i)], servers[i], scfg, root)
	}

	// Clients with their workloads.
	nodes := make([]*client.Node, cfg.Clients)
	loads := make([]*workload.IOR, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		ccfg := cfg.clientConfig(i, clientIDs[i], mds)
		node, err := client.New(engines[clientShard(i)], fabrics[clientShard(i)], ccfg)
		if err != nil {
			return nil, err
		}
		nodes[i] = node

		w, err := workload.NewIOR(node, cfg.workloadConfig(i), nil)
		if err != nil {
			return nil, err
		}
		loads[i] = w
		w.Start(engines[clientShard(i)])
	}

	// Cross-shard routing: a frame whose destination lives on another
	// shard is posted to that shard's mailbox, carrying its delivery
	// time and provenance key; the destination injects it with the
	// exact compound key a shared engine would have used. Frames
	// migrate between per-shard pools with their ownership.
	var se *shard.Engine
	if shards > 1 {
		se = shard.New(engines, cfg.FabricLatency)
		// nodeShard maps a node id to its shard; -1 marks an id no node
		// holds (the fabric keeps ids outside the space from the hook).
		nodeShard := make([]int, ids)
		for i := range nodeShard {
			nodeShard[i] = -1
		}
		nodeShard[mds] = 0
		for i := range clientIDs {
			nodeShard[clientIDs[i]] = clientShard(i)
		}
		for i := range servers {
			nodeShard[servers[i]] = serverShard(i)
		}
		for i := range fabrics {
			src := i
			fabrics[i].SetRemote(func(fr *netsim.Frame, sendAt, deliverAt units.Time, key netsim.FrameKey) bool {
				dst := nodeShard[fr.Dst]
				if dst < 0 {
					return false
				}
				df := fabrics[dst]
				se.Post(src, dst, shard.Msg{
					At: deliverAt, SentAt: sendAt, Origin: key.Origin(), Seq: key.Seq,
					Fn: df.Arrival(fr),
				})
				return true
			})
		}
	}

	// Arm the fault plan against the assembled cluster. An empty plan
	// arms to a no-op without drawing randomness, keeping healthy runs
	// byte-identical.
	inj, err := cfg.Faults.Clone().Arm(faults.Target{
		Engines:      engines,
		Fabrics:      fabrics,
		ServerEngine: func(i int) *sim.Engine { return engines[serverShard(i)] },
		Servers:      srvs,
		Clients:      clientIDs,
		StormNode:    stormNode,
		Rand:         root,
	})
	if err != nil {
		return nil, err
	}

	// Hybrid-fidelity background population (DESIGN.md §14): fluid
	// stations at every loaded server and (for colocated tenants) every
	// foreground client. Server stations are demand-stepped — the
	// service-scale hooks advance them to the dispatch instant — so a
	// server pays nothing when idle; client stations are advanced by a
	// standing per-node rate-update tick that also converts the step's
	// served fluid into aggregated IRQ/softirq pressure on the core the
	// steering policy picks. Every hook and tick touches only its own
	// node's state and queries at node-local event times, which is what
	// keeps sharded layouts bit-identical (stations advance in whole
	// steps: state is a pure function of the query time).
	var stations []*flowsim.Station
	if cfg.BackgroundUsers > 0 {
		step := rateUpdate
		for i := range srvs {
			flows := flowsim.ServerFlows(cfg.TenantMix, cfg.BackgroundUsers, i, cfg.Servers)
			if !flowsim.HasRate(flows) {
				continue
			}
			st := flowsim.NewStation(cfg.ServerNICRate, step, flows)
			stations = append(stations, st)
			scale := func(now units.Time) float64 {
				st.AdvanceTo(now)
				return flowsim.Slowdown(st.Load())
			}
			srvs[i].NIC().SetServiceScale(scale)
			srvs[i].SetCPUScale(scale)
		}
		cflows := flowsim.ClientFlows(cfg.TenantMix, cfg.BackgroundUsers, cfg.Clients)
		if flowsim.HasRate(cflows) {
			for i, node := range nodes {
				st := flowsim.NewStation(cfg.ClientNICRate, step, cflows)
				stations = append(stations, st)
				// The NIC hook samples the last completed step's load
				// without advancing — the tick owns the integration, so
				// the observed load is one step stale by construction,
				// identically in every layout.
				node.NIC().SetServiceScale(func(units.Time) float64 {
					return flowsim.Slowdown(st.Load())
				})
				// Per-tenant flow identities: stable functions of the
				// node id, so flow-hashing policies (RSS) spread tenants
				// over queues the same way in every layout.
				flowIDs := make([]uint64, len(cfg.TenantMix))
				for k := range flowIDs {
					flowIDs[k] = rng.Derive(uint64(clientIDs[i]), uint64(k))
				}
				n, w, ne := node, loads[i], engines[clientShard(i)]
				var tick func(units.Time)
				tick = func(now units.Time) {
					if w.Finished() != 0 {
						return // foreground done: stop loading this node
					}
					st.AdvanceTo(now)
					for k := range flowIDs {
						b := st.ServedLastStep(k)
						if b <= 0 {
							continue
						}
						// One routing decision per tenant per step: the
						// policy sees the tenant's flow with no hint
						// (background traffic carries no aff_core_id),
						// then the chosen core absorbs the step's
						// aggregated interrupt-entry and softirq cost.
						dest := n.IOAPIC().RouteFor(client.DataVector, apic.NoHint, flowIDs[k])
						core := n.CPU().Core(dest)
						irqs := b / float64(cfg.StripSize)
						core.Submit(cpu.PrioSoftirq, cpu.CatIRQ,
							units.Time(irqs*float64(cfg.Costs.IRQEntry)), nil)
						core.Submit(cpu.PrioSoftirq, cpu.CatSoftirq,
							units.Time(b*cfg.Costs.SoftirqPerByte), nil)
					}
					ne.After(step, tick)
				}
				ne.After(step, tick)
			}
		}
	}

	if spans != nil {
		for _, n := range nodes {
			n.SetSpanLog(spans)
			id := int(n.Config().Node)
			n.CPU().SetSpanHook(func(core int, cat cpu.Category, start, end units.Time) {
				spans.AddCoreSpan(trace.CoreSpan{Node: id, Core: core,
					Name: cat.String(), Start: start, End: end})
			})
		}
		for _, srv := range srvs {
			srv.SetSpanLog(spans)
		}
	}
	cancellable := ctx != nil && ctx.Done() != nil
	var stopped bool
	if se != nil {
		if cancellable || cfg.Progress != nil {
			// One stop closure serves both jobs, polled between rounds:
			// cancellation check and the progress heartbeat with the
			// aggregate counters and the global (min-shard) clock.
			se.SetStop(func() bool {
				if cfg.Progress != nil {
					cfg.Progress(se.Fired(), se.Live(), se.Now())
				}
				return cancellable && ctx.Err() != nil
			})
		}
		se.Run()
		stopped = se.Stopped()
	} else {
		if cancellable || cfg.Progress != nil {
			// One stop-poll closure serves both jobs: cancellation check
			// and the progress heartbeat, at the engine's poll cadence.
			eng.SetStop(func() bool {
				if cfg.Progress != nil {
					cfg.Progress(eng.Fired(), eng.Live(), eng.Now())
				}
				return cancellable && ctx.Err() != nil
			})
		}
		eng.RunUntilIdle()
		stopped = eng.Stopped()
	}
	// Makespan and fabric totals aggregate over shards; on the classic
	// path they reduce to the lone engine and fabric.
	var end units.Time
	for _, e := range engines {
		if t := e.Now(); t > end {
			end = t
		}
	}
	var net netTotals
	for _, f := range fabrics {
		net.dropped += f.Dropped()
		net.corrupted += f.Corrupted()
	}
	res := collect(cfg, end, net, nodes, loads, srvs, inj, stations)
	if ctx != nil && stopped {
		return res, ctx.Err()
	}
	return res, nil
}

// netTotals is the fabric damage rollup summed over shards.
type netTotals struct {
	dropped   uint64
	corrupted uint64
}

// collect assembles the Result from the finished simulation. end is
// the makespan (latest shard clock) and net the fabric rollup.
func collect(cfg Config, end units.Time, net netTotals, nodes []*client.Node,
	loads []*workload.IOR, srvs []*pfs.Server, inj *faults.Injector,
	stations []*flowsim.Station) *Result {
	res := &Result{
		Policy:         cfg.Policy.String(),
		Duration:       end,
		BusyByCategory: make(map[string]units.Time),
	}
	catNames := []cpu.Category{cpu.CatIRQ, cpu.CatSoftirq, cpu.CatMigration,
		cpu.CatMemStall, cpu.CatCompute, cpu.CatSyscall, cpu.CatOther}

	var busy units.Time
	var lines cache.BlockStats
	for i, n := range nodes {
		st := n.Stats()
		res.TotalBytes += st.BytesRead + st.BytesWritten
		res.HintedIRQs += st.HintedIRQs
		res.Interrupts += st.Interrupts
		res.Retries += st.Retries
		res.FailedTransfers += st.FailedTransfers
		res.HeaderDrops += st.HeaderDrops
		res.RingDrops += n.NIC().Stats().RingDrops
		res.Faults.StripsRetried += st.StripsRetried
		res.Faults.DuplicateStrips += st.DuplicateStrips
		res.Faults.PartialOps += st.PartialTransfers
		res.Faults.PartialBytes += st.PartialBytes
		res.Faults.OpErrors = append(res.Faults.OpErrors, n.OpErrors()...)
		res.ReorderedFrames += st.ReorderedFrames
		if st.ReorderDepthMax > res.ReorderDepthMax {
			res.ReorderDepthMax = st.ReorderDepthMax
		}
		if len(st.PolicyCounters) > 0 {
			if res.PolicyStats == nil {
				res.PolicyStats = make(map[string]uint64, len(st.PolicyCounters))
			}
			//lint:maporder summed merge is order-independent
			for k, v := range st.PolicyCounters {
				res.PolicyStats[k] += v
			}
		}

		lines.Add(n.Caches().Aggregate())

		total := n.CPU().TotalStats()
		busy += total.Busy
		for _, c := range catNames {
			res.BusyByCategory[c.String()] += total.ByCategory[c]
		}
		res.UnhaltedCycles += n.CPU().UnhaltedCycles()

		dur := loads[i].Finished()
		if dur <= 0 {
			dur = end
		}
		res.PerClient = append(res.PerClient, units.Over(st.BytesRead+st.BytesWritten, dur))
	}
	if res.Duration > 0 {
		res.Bandwidth = units.Over(res.TotalBytes, res.Duration)
		coreNS := float64(res.Duration) * float64(cfg.Clients*cfg.CoresPerClient)
		res.CPUUtilization = float64(busy) / coreNS
	}
	res.CacheMissRate = lines.MissRate()
	res.LineAccesses, res.LineMisses = lines.Accesses, lines.Misses
	res.RemoteLines, res.MemoryLines = lines.RemoteTransfers, lines.MemoryFills
	var lats, wlats []float64
	for _, n := range nodes {
		lats = append(lats, n.Latencies()...)
		wlats = append(wlats, n.WriteLatencies()...)
	}
	if len(lats) > 0 {
		var sum float64
		for _, l := range lats {
			sum += l
		}
		res.LatencyMean = units.Time(sum / float64(len(lats)))
		res.LatencyP50 = units.Time(metrics.Percentile(lats, 50))
		res.LatencyP99 = units.Time(metrics.Percentile(lats, 99))
	}
	if len(wlats) > 0 {
		res.WriteLatencyP50 = units.Time(metrics.Percentile(wlats, 50))
		res.WriteLatencyP99 = units.Time(metrics.Percentile(wlats, 99))
	}
	var strips metrics.Histogram
	for _, n := range nodes {
		strips.Merge(n.StripLatencies())
	}
	if strips.Count() > 0 {
		res.StripCount = strips.Count()
		res.StripLatencyMean = units.Time(strips.Mean())
		res.StripLatencyP50 = units.Time(strips.Percentile(50))
		res.StripLatencyP95 = units.Time(strips.Percentile(95))
		res.StripLatencyP99 = units.Time(strips.Percentile(99))
	}
	for _, s := range srvs {
		res.ServerBytes = append(res.ServerBytes, s.Stats().BytesSent+s.Stats().BytesWritten)
		res.Faults.StallsInjected += s.Stats().Stalled
	}

	// Fault rollup: wire damage from the fabric, recovery activity from
	// the clients (filled above), injection accounting from the armed
	// injector, and goodput against the workloads' offered load.
	res.NetDrops = net.dropped
	res.Faults.FramesDropped = net.dropped
	res.Faults.FramesCorrupted = net.corrupted
	res.Faults.HeaderDrops = res.HeaderDrops
	res.Faults.RingDrops = res.RingDrops
	res.Faults.FailedOps = res.FailedTransfers
	ist := inj.Finish(end)
	res.Faults.Crashes = ist.Crashes
	res.Faults.ServerDowntime = ist.Downtime
	res.Faults.LastReviveAt = ist.LastReviveAt
	res.Faults.StormFrames = ist.StormFrames
	if ist.LastReviveAt > 0 && res.Duration > ist.LastReviveAt {
		res.Faults.RecoveryTime = res.Duration - ist.LastReviveAt
	}
	for _, w := range loads {
		res.Faults.OfferedBytes += w.TotalBytes()
	}
	res.Faults.GoodputBytes = res.TotalBytes
	// Background fluid accounting: integrate every station through the
	// exact makespan (including the final partial step) and roll up.
	// Station order is fixed (servers then clients, construction order)
	// so the float sums are bit-stable across layouts.
	for _, st := range stations {
		st.Finalize(end)
		res.BackgroundOfferedBytes += st.OfferedBytes()
		res.BackgroundServedBytes += st.ServedBytes()
		res.BackgroundBacklogBytes += st.BacklogBytes()
	}
	if dur := float64(res.Duration); dur > 0 {
		var nicBusy float64
		for _, n := range nodes {
			nicBusy += float64(n.NICIngressBusy()) / dur
		}
		res.ClientNICBusy = nicBusy / float64(len(nodes))
		var diskBusy, cpuBusy float64
		for _, s := range srvs {
			diskBusy += float64(s.Disk().Stats().BusyTime) / dur
			cpuBusy += float64(s.CPUBusy()) / dur
		}
		res.DiskBusy = diskBusy / float64(len(srvs))
		res.ServerCPUBusy = cpuBusy / float64(len(srvs))
	}
	return res
}
