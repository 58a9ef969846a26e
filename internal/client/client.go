// Package client models the I/O client node — the machine whose
// interrupt scheduling the paper changes. It wires together the
// multi-core CPU, per-core caches, the NIC, the APIC pair, and an
// interrupt-scheduling policy, and implements the full life cycle of a
// parallel read:
//
//	syscall → HintMessager stamps aff_core_id → per-server requests →
//	strip data frames → NIC interrupt → policy picks handling core →
//	softirq protocol processing deposits the strip in that core's cache →
//	last strip wakes the process → the process consumes every strip
//	(local hit, cache-to-cache migration, or memory fill) and computes.
package client

import (
	"fmt"
	"sort"

	"sais/internal/apic"
	"sais/internal/cache"
	"sais/internal/cpu"
	"sais/internal/irqsched"
	"sais/internal/metrics"
	"sais/internal/netsim"
	"sais/internal/pfs"
	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/trace"
	"sais/internal/units"
)

// DataVector is the interrupt vector of the client NIC.
const DataVector apic.Vector = 64

// CostModel holds the client-side per-operation costs. The defaults
// (DefaultCosts) are calibrated to the paper's hardware: strip
// processing P is tens of microseconds while strip migration M is over
// a hundred — the M >> P regime of §III.A.
type CostModel struct {
	IRQEntry       units.Time // interrupt entry/dispatch, per interrupt
	SoftirqPerByte float64    // ns/B protocol processing on the handling core
	SyscallTime    units.Time // per read() submission
	WakeIPI        units.Time // inter-core wakeup signal handling
	LocalLine      units.Time // per-line read, local L2 hit
	RemoteLine     units.Time // per-line same-socket cache-to-cache stall
	RemoteLineFar  units.Time // per-line cross-socket stall (0 = same as RemoteLine)
	L3Line         units.Time // per-line same-socket shared-L3 hit
	MemLine        units.Time // per-line DRAM fill stall
	// SocketSize is the number of cores per socket for NUMA pricing;
	// 0 means a uniform topology (every remote line costs RemoteLine).
	SocketSize     int
	ComputePerByte float64 // ns/B application compute (IOR's encrypt step)
	// ComputeAccessesPerLine is how many additional local cache accesses
	// the compute phase performs per consumed data line (working-set
	// re-touches); it dilutes the strip miss rate toward the levels a
	// hardware counter reports.
	ComputeAccessesPerLine float64
	// BackgroundMissRate is the fraction of those compute accesses that
	// miss anyway (cold code, metadata, TLB walks) — the floor a real L2
	// miss counter never drops below, independent of interrupt
	// scheduling.
	BackgroundMissRate float64
}

// DefaultCosts returns the Opteron-2384-calibrated model.
func DefaultCosts() CostModel {
	return CostModel{
		IRQEntry:       2 * units.Microsecond,
		SoftirqPerByte: 0.25,
		SyscallTime:    3 * units.Microsecond,
		WakeIPI:        2 * units.Microsecond,
		LocalLine:      6,
		// Dual-socket Opteron: HyperTransport probe + transfer is about
		// 140 ns within a socket and 240 ns across; with a consumer
		// sharing its socket with 3 of the 7 peers, the expected uniform
		// equivalent is ≈197 ns — matching the flat calibration.
		RemoteLine:             140,
		RemoteLineFar:          240,
		SocketSize:             4,
		MemLine:                120,
		ComputePerByte:         1.5,
		ComputeAccessesPerLine: 2,
		BackgroundMissRate:     0.05,
	}
}

// Config describes one client node.
type Config struct {
	Node             netsim.NodeID
	Cores            int
	Freq             units.Hertz
	CachePerCore     units.Bytes
	LineSize         units.Bytes
	NIC              netsim.NICConfig
	Policy           irqsched.PolicyKind
	IrqbalancePeriod units.Time
	DedicatedCore    int
	LAPICLatency     units.Time
	Costs            CostModel
	// MigrateDuringBlock is the probability that the scheduler migrates
	// a process to the least-loaded core while it is blocked on an I/O
	// — the scenario behind the paper's policy-(i)-vs-(ii) distinction.
	// SAIs bundles processes to their request core, so the default is 0
	// and §III argues such migrations are rare in I/O-intensive systems.
	MigrateDuringBlock float64
	// CurrentCoreHint selects the paper's scheduling policy (ii): the
	// NIC driver overrides the packet's aff_core_id with the issuing
	// process's *current* core at delivery time (kernel-side knowledge
	// the prototype did not use). The default is policy (i): follow the
	// core recorded at request time. The two differ only when processes
	// migrate during an I/O block, which §III argues is rare.
	CurrentCoreHint bool
	// RSSQueues sizes the MSI-X queue set used by PolicyHardwareRSS
	// (default: one queue per core). Each queue's vector is statically
	// programmed via the redirection table to core q mod Cores, exactly
	// as the Intel 82575/82599 static assignment the paper's related
	// work discusses.
	RSSQueues int
	// L3PerSocket attaches a shared victim L3 of this capacity to each
	// socket (the Opteron 2384's 6 MB L3). Zero disables it; strips
	// evicted from a private L2 then cost a full DRAM fill, as in the
	// calibrated baseline.
	L3PerSocket units.Bytes
	// AllowedIRQCores restricts the NIC vector's redirection-table entry
	// to these cores (the /proc/irq/N/smp_affinity mask a sysadmin
	// would set). Empty means all cores. Hints pointing outside the
	// mask are misrouted to the first allowed core, as hardware would.
	AllowedIRQCores []int
	// TimesliceQuantum enables kernel-style round-robin timeslicing of
	// process work on each core (0 = run to completion). Relevant when
	// applications outnumber cores (the paper's §VI saturation study).
	TimesliceQuantum units.Time
	// RetryTimeout re-issues the unfinished parts of a transfer that has
	// not completed after this long — the recovery path for dropped
	// frames. Zero disables retries (the default; the simulated fabric
	// is lossless unless loss injection is enabled).
	RetryTimeout units.Time
	// MaxRetries bounds re-issues per transfer before it is abandoned
	// and counted in Stats.FailedTransfers.
	MaxRetries int
	// RetryBackoff is the exponential growth factor applied to the retry
	// interval after each unsuccessful attempt: attempt k waits
	// RetryTimeout × RetryBackoff^k (before jitter and cap). 0 selects
	// the default factor 2; 1 restores the fixed interval. Values in
	// (0, 1) are invalid — retries never speed up.
	RetryBackoff float64
	// RetryBackoffCap bounds the backed-off interval; 0 selects
	// 8 × RetryTimeout.
	RetryBackoffCap units.Time
	// RetryJitter shrinks each backed-off delay by a deterministic
	// per-(seed, tag, attempt) derived fraction in [0, RetryJitter), so
	// clients that lost frames in the same burst spread their re-issues
	// instead of hammering the recovering server in lockstep. 0 selects
	// the default 0.1; negative disables jitter. Must stay below 1.
	RetryJitter float64
	// TransferDeadline bounds the total lifetime of one transfer. A
	// transfer that cannot complete by its deadline degrades gracefully:
	// the strips that did arrive are consumed and the operation finishes
	// as a typed partial result (OpError with Partial set, counted in
	// Stats.PartialTransfers) instead of being abandoned wholesale —
	// the difference between "the file server is slow" and "my job
	// hangs forever because one server stayed crashed". 0 disables;
	// enforcement rides the retry timer, so it requires RetryTimeout > 0.
	TransferDeadline units.Time
	Seed             uint64
	MDS              netsim.NodeID
}

// Backoff-schedule defaults, applied when the corresponding Config
// field is zero.
const (
	defaultRetryBackoff       = 2.0
	defaultRetryJitter        = 0.1
	defaultBackoffCapMultiple = 8
)

// RetryDelay returns the delay armed before attempt's re-issue of the
// transfer with the given tag (attempt 0 is the initial timer armed at
// issue, which always waits exactly RetryTimeout). The schedule is
// exponential with a cap and subtractive derived jitter — a pure
// function of (Seed, tag, attempt), so it is deterministic per seed,
// layout-invariant under sharding, and distinct across clients (their
// seeds are independently derived), which keeps loss bursts from
// turning into synchronized retry storms.
func (c Config) RetryDelay(tag uint64, attempt int) units.Time {
	if c.RetryTimeout <= 0 {
		return 0
	}
	if attempt <= 0 {
		return c.RetryTimeout
	}
	factor := c.RetryBackoff
	if factor == 0 {
		factor = defaultRetryBackoff
	}
	limit := c.RetryBackoffCap
	if limit <= 0 {
		limit = defaultBackoffCapMultiple * c.RetryTimeout
	}
	if limit < c.RetryTimeout {
		limit = c.RetryTimeout
	}
	d := float64(c.RetryTimeout)
	for i := 0; i < attempt && d < float64(limit); i++ {
		d *= factor
	}
	if d > float64(limit) {
		d = float64(limit)
	}
	if jf := c.RetryJitter; jf >= 0 {
		if jf == 0 {
			jf = defaultRetryJitter
		}
		u := rng.Unit01(rng.Derive(rng.Derive(c.Seed, tag), uint64(attempt)))
		d *= 1 - jf*u
	}
	if d < 1 {
		d = 1
	}
	return units.Time(d)
}

// DefaultConfig returns the head-node client: 8 cores at 2.7 GHz,
// 512 KiB private L2 per core, the given NIC rate, and the requested
// policy.
func DefaultConfig(node netsim.NodeID, nicRate units.Rate, policy irqsched.PolicyKind) Config {
	return Config{
		Node:             node,
		Cores:            8,
		Freq:             2700 * units.MHz,
		CachePerCore:     512 * units.KiB,
		LineSize:         64,
		NIC:              netsim.DefaultNICConfig(nicRate),
		Policy:           policy,
		IrqbalancePeriod: 10 * units.Millisecond,
		LAPICLatency:     200 * units.Nanosecond,
		Costs:            DefaultCosts(),
		Seed:             1,
	}
}

func (c Config) validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("client: cores %d must be positive", c.Cores)
	}
	desc, ok := irqsched.Describe(c.Policy)
	if !ok {
		return fmt.Errorf("client: %w", &irqsched.UnknownPolicyError{Kind: c.Policy})
	}
	if desc.UsesHints && c.Cores > netsim.MaxCores {
		return fmt.Errorf("client: SAIs addresses at most %d cores, got %d", netsim.MaxCores, c.Cores)
	}
	if c.CachePerCore <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("client: cache geometry invalid")
	}
	if c.MigrateDuringBlock < 0 || c.MigrateDuringBlock > 1 {
		return fmt.Errorf("client: MigrateDuringBlock %v outside [0,1]", c.MigrateDuringBlock)
	}
	for _, core := range c.AllowedIRQCores {
		if core < 0 || core >= c.Cores {
			return fmt.Errorf("client: IRQ affinity core %d out of range", core)
		}
	}
	if c.RetryBackoff != 0 && c.RetryBackoff < 1 {
		return fmt.Errorf("client: retry backoff factor %v below 1 (retries never speed up)", c.RetryBackoff)
	}
	if c.RetryBackoffCap < 0 {
		return fmt.Errorf("client: negative retry backoff cap")
	}
	if c.RetryJitter >= 1 {
		return fmt.Errorf("client: retry jitter %v must stay below 1", c.RetryJitter)
	}
	if c.TransferDeadline < 0 {
		return fmt.Errorf("client: negative transfer deadline")
	}
	if c.TransferDeadline > 0 && c.RetryTimeout <= 0 {
		return fmt.Errorf("client: transfer deadline needs RetryTimeout > 0 (the deadline is enforced by the retry timer)")
	}
	return nil
}

// Stats is the client-node roll-up the experiments report.
type Stats struct {
	BytesRead       units.Bytes
	Transfers       uint64
	BytesWritten    units.Bytes
	WriteTransfers  uint64
	Interrupts      uint64
	HintedIRQs      uint64
	MetadataTrips   uint64
	Retries         uint64
	FailedTransfers uint64
	// StripsRetried counts the strips re-requested (reads) or re-sent
	// (writes) by the timeout recovery path.
	StripsRetried uint64
	// DuplicateStrips counts late strips and write acks discarded
	// because a retry had already delivered them.
	DuplicateStrips uint64
	// HeaderDrops counts frames rejected because their IPv4 header
	// failed validation — the stack drops them before any protocol
	// processing, exactly like wire loss.
	HeaderDrops uint64
	// PartialTransfers counts transfers that hit their TransferDeadline
	// (or retry budget, with the deadline enabled) and completed with
	// only the strips that had arrived; PartialBytes is what those
	// transfers actually delivered. Partial bytes also count in
	// BytesRead/BytesWritten — they reached the application.
	PartialTransfers uint64
	PartialBytes     units.Bytes
	// ReorderedFrames counts strip-data frames that completed softirq
	// processing with a per-(transfer, server) sequence lower than one
	// already seen — the Wu et al. Flow Director pathology made visible.
	// ReorderDepthMax is the largest observed sequence regression.
	ReorderedFrames uint64
	ReorderDepthMax uint64
	// PolicyCounters carries the router's self-describing counters
	// (CounterReporter); nil for policies that export none.
	PolicyCounters map[string]uint64
}

// OpError is the typed per-operation record of a transfer that did not
// complete normally: either abandoned after exhausting MaxRetries, or
// degraded to a partial result at its TransferDeadline. Neither outcome
// is silent: each record is surfaced through Node.OpErrors (and from
// there into the cluster Result's fault rollup), and the operation's
// elapsed time still lands in the latency distribution.
//saisvet:jsonstable sig=e3566ab0
type OpError struct {
	Write bool
	// Client is the node id of the issuing client; tags are unique only
	// per client, so (Client, Tag) is the transfer's global identity.
	Client   netsim.NodeID
	File     pfs.FileID
	Tag      uint64
	Retries  int
	IssuedAt units.Time
	FailedAt units.Time
	// Partial marks graceful degradation: the transfer completed at its
	// deadline with BytesDelivered of its payload, StripsMissing strips
	// short. Abandoned transfers (Partial false) delivered nothing.
	Partial        bool
	BytesDelivered units.Bytes
	StripsMissing  int
}

// Error implements the error interface.
func (e OpError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	if e.Partial {
		return fmt.Sprintf("client %d: %s of file %d (tag %d) degraded to partial at deadline: %v delivered, %d strips missing after %d retries (%v in flight)",
			e.Client, op, e.File, e.Tag, e.BytesDelivered, e.StripsMissing, e.Retries, e.FailedAt-e.IssuedAt)
	}
	return fmt.Sprintf("client %d: %s of file %d (tag %d) abandoned after %d retries (%v in flight)",
		e.Client, op, e.File, e.Tag, e.Retries, e.FailedAt-e.IssuedAt)
}

// read tracks one in-flight transfer.
type read struct {
	proc     *Proc
	issuedAt units.Time
	file     pfs.FileID
	tag      uint64
	plans    []pfs.ServerPlan
	hint     netsim.AffHint
	localEOF func(serverIdx int) units.Bytes
	got      map[int]bool // arrived strips, for dedupe and resend
	// lastSeq is the highest Frame.FlowSeq accepted per server within
	// this transfer — the receive-side reorder detector.
	lastSeq map[netsim.NodeID]uint64
	// srvLeft counts this transfer's outstanding strips per server, for
	// the flow-idle bookkeeping (maintained only when the router wants
	// NoteFlowIdle callbacks).
	srvLeft   map[netsim.NodeID]int
	remaining int
	bytes     units.Bytes
	blocks    []blockRef
	retries   int
	partial   bool // deadline hit with strips in hand: consume what arrived
	timer     sim.Timer
	done      sim.Event
}

type blockRef struct {
	id    cache.BlockID
	size  units.Bytes
	strip int // global strip index, for span identity
}

// writeOp tracks one in-flight write transfer: strips are pushed to the
// servers and the operation completes when every strip is acknowledged.
type writeOp struct {
	proc      *Proc
	issuedAt  units.Time
	file      pfs.FileID
	tag       uint64
	plans     []pfs.ServerPlan
	hint      netsim.AffHint
	acked     map[int]bool
	remaining int
	bytes     units.Bytes
	retries   int
	timer     sim.Timer
	done      sim.Event
}

// pendingOpen queues operations issued before the file's layout arrived.
type pendingOpen struct {
	offset  units.Bytes
	length  units.Bytes
	isWrite bool
	proc    *Proc
	done    sim.Event
}

// openState tracks the in-flight metadata request for one file, so a
// lost layout request or reply is retried instead of parking the file's
// operations forever.
type openState struct {
	tag      uint64
	retries  int
	issuedAt units.Time
	timer    sim.Timer
}

// Node is the client node instance.
type Node struct {
	cfg    Config
	eng    *sim.Engine
	cpu    *cpu.CPU
	caches *cache.System
	nic    *netsim.NIC
	ioapic *apic.IOAPIC
	locals []*apic.LocalAPIC
	router apic.Router
	msgr   irqsched.HintMessager
	rnd    *rng.Source
	// txObs/idleObs are the router's optional learning hooks (Flow
	// Director, A-TFC); nil for static policies.
	txObs   irqsched.TxObserver
	idleObs irqsched.FlowIdleObserver
	// flowOut counts outstanding read strips per server across all
	// transfers; a flow's drop to zero fires NoteFlowIdle. Allocated
	// only when idleObs is set.
	flowOut map[netsim.NodeID]int
	// reorderIssue enables straggler-aware issue scheduling: srvLat is
	// the per-server EWMA of strip issue→arrival latency (ns) and
	// sendReadRequests issues slowest-first.
	reorderIssue bool
	srvLat       map[netsim.NodeID]float64

	layouts   map[pfs.FileID]pfs.Layout
	opening   map[pfs.FileID][]pendingOpen
	opens     map[pfs.FileID]*openState
	openTags  map[uint64]pfs.FileID
	reads     map[uint64]*read
	writes    map[uint64]*writeOp
	nextTag   uint64
	nextBlock cache.BlockID
	// freeReads/freeWrites recycle transfer records (and their interior
	// map/slice capacity): one record per strip-bearing transfer is the
	// client's highest allocation churn after frames. A record is freed
	// only at the end of its final event (completion compute closure or
	// retry-exhaustion abandon), when no timer or closure references it.
	freeReads  []*read
	freeWrites []*writeOp
	// frameq holds frames routed to each core, consumed by the local
	// APIC handler in FIFO order.
	frameq [][]*netsim.Frame
	stats  Stats
	// latencies holds completed read-transfer latencies in nanoseconds,
	// for percentile reporting; writeLatencies the same for writes.
	// Abandoned operations contribute their time-to-failure so loss
	// never silently improves the distribution.
	latencies      []float64
	writeLatencies []float64
	opErrors       []OpError
	tracer         *trace.Ring
	// spans, when non-nil, records the full lifecycle of every strip.
	spans *trace.SpanLog
	// stripHist accumulates per-strip issue→arrival latency (ns); it is
	// always on — the fixed-shape histogram costs one array index per
	// strip.
	stripHist metrics.Histogram
}

// Latencies returns the completed read-transfer latencies (ns).
func (n *Node) Latencies() []float64 { return n.latencies }

// WriteLatencies returns the completed write-transfer latencies (ns).
func (n *Node) WriteLatencies() []float64 { return n.writeLatencies }

// OpErrors returns the typed failure record of every transfer that
// exhausted its retries.
func (n *Node) OpErrors() []OpError { return n.opErrors }

// SetTracer installs an optional event trace; nil disables tracing.
func (n *Node) SetTracer(tr *trace.Ring) { n.tracer = tr }

// SetSpanLog attaches the lifecycle span recorder; nil (the default)
// disables span tracing entirely — no allocation on any hot path.
func (n *Node) SetSpanLog(l *trace.SpanLog) { n.spans = l }

// StripLatencies returns the per-strip issue→arrival latency histogram
// (nanoseconds).
func (n *Node) StripLatencies() *metrics.Histogram { return &n.stripHist }

func (n *Node) tracef(component, format string, args ...any) {
	if n.tracer != nil {
		n.tracer.Add(n.eng.Now(), component, format, args...)
	}
}

// loadAdapter exposes core load to the irqbalance policy.
type loadAdapter struct{ c *cpu.CPU }

func (l loadAdapter) NumCores() int             { return l.c.NumCores() }
func (l loadAdapter) CoreBusy(i int) units.Time { return l.c.Core(i).Stats().Busy }
func (l loadAdapter) CoreQueue(i int) int       { return l.c.Core(i).QueueLen() }

// New builds a client node and attaches it to fab. It returns an error
// on invalid configuration.
func New(eng *sim.Engine, fab *netsim.Fabric, cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	desc, _ := irqsched.Describe(cfg.Policy) // validate() vouched for the kind
	rssQueues := 0
	if desc.MSIX {
		rssQueues = cfg.RSSQueues
		if rssQueues < 1 {
			rssQueues = cfg.Cores
		}
		cfg.NIC.RxQueues = rssQueues
	}
	n := &Node{
		cfg:      cfg,
		eng:      eng,
		cpu:      cpu.New(eng, cfg.Cores, cfg.Freq),
		caches:   cache.NewSystem(cfg.Cores, cfg.CachePerCore, cfg.LineSize),
		nic:      netsim.NewNIC(eng, cfg.Node, cfg.NIC),
		rnd:      rng.New(cfg.Seed).Split(fmt.Sprintf("client%d", cfg.Node)),
		layouts:  make(map[pfs.FileID]pfs.Layout),
		opening:  make(map[pfs.FileID][]pendingOpen),
		opens:    make(map[pfs.FileID]*openState),
		openTags: make(map[uint64]pfs.FileID),
		reads:    make(map[uint64]*read),
		writes:   make(map[uint64]*writeOp),
		frameq:   make([][]*netsim.Frame, cfg.Cores),
	}
	fab.Attach(n.nic)
	if cfg.L3PerSocket > 0 {
		ss := cfg.Costs.SocketSize
		if ss < 1 {
			ss = cfg.Cores
		}
		n.caches.ConfigureL3(ss, cfg.L3PerSocket)
	}
	if cfg.TimesliceQuantum > 0 {
		n.cpu.SetQuantum(cfg.TimesliceQuantum)
	}

	n.locals = apic.NewLocalAPICs(eng, cfg.Cores, cfg.LAPICLatency)
	irq := func(core int, _ apic.Vector, now units.Time) { n.handleIRQ(core, now) }
	for _, l := range n.locals {
		l.SetHandler(irq)
	}
	n.ioapic = apic.NewIOAPIC(eng, n.locals)
	if len(cfg.AllowedIRQCores) > 0 {
		n.ioapic.Program(DataVector, cfg.AllowedIRQCores)
	}
	router, err := irqsched.New(cfg.Policy, irqsched.Options{
		Loads:         loadAdapter{n.cpu},
		Period:        cfg.IrqbalancePeriod,
		DedicatedCore: cfg.DedicatedCore,
		SocketSize:    cfg.Costs.SocketSize,
		Cores:         cfg.Cores,
		RSSQueues:     rssQueues,
		RSSBaseVector: DataVector,
	})
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	n.router = router
	if desc.MSIX {
		// Hardware RSS: one vector per queue, statically pinned via the
		// redirection table — the same map the StaticTable router holds.
		for q := 0; q < rssQueues; q++ {
			n.ioapic.Program(DataVector+apic.Vector(q), []int{q % cfg.Cores})
		}
	}
	n.ioapic.SetRouter(n.router)
	n.msgr = irqsched.HintMessager{Enabled: desc.UsesHints}
	n.txObs, _ = n.router.(irqsched.TxObserver)
	n.idleObs, _ = n.router.(irqsched.FlowIdleObserver)
	if n.idleObs != nil {
		n.flowOut = make(map[netsim.NodeID]int)
	}
	n.reorderIssue = desc.ReorderIssue
	if n.reorderIssue {
		n.srvLat = make(map[netsim.NodeID]float64)
	}
	if desc.MSIX {
		n.nic.SetQueueHandler(n.onNICQueueInterrupt)
	} else {
		n.nic.SetInterruptHandler(n.onNICInterrupt)
	}
	return n, nil
}

// MustNew is New for configurations known valid (tests, examples).
func MustNew(eng *sim.Engine, fab *netsim.Fabric, cfg Config) *Node {
	n, err := New(eng, fab, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// CPU exposes the processor for metric collection.
func (n *Node) CPU() *cpu.CPU { return n.cpu }

// Caches exposes the cache system for metric collection.
func (n *Node) Caches() *cache.System { return n.caches }

// NIC exposes the network interface for metric collection.
func (n *Node) NIC() *netsim.NIC { return n.nic }

// IOAPIC exposes the interrupt controller for metric collection.
func (n *Node) IOAPIC() *apic.IOAPIC { return n.ioapic }

// Config returns the node configuration.
func (n *Node) Config() Config { return n.cfg }

// Stats returns a copy of the roll-up counters.
func (n *Node) Stats() Stats {
	s := n.stats
	s.Interrupts = n.nic.Stats().Interrupts
	if h, ok := n.router.(interface{ Hinted() uint64 }); ok {
		s.HintedIRQs = h.Hinted()
	}
	if cr, ok := n.router.(irqsched.CounterReporter); ok {
		s.PolicyCounters = cr.Counters()
	}
	return s
}

// Proc is an application process pinned to a core (until an explicit
// wake-time migration).
type Proc struct {
	id   int
	core int
	node *Node
}

// NewProc creates a process on the given core.
func (n *Node) NewProc(id, core int) *Proc {
	if core < 0 || core >= n.cfg.Cores {
		panic(fmt.Sprintf("client: proc core %d out of range", core))
	}
	return &Proc{id: id, core: core, node: n}
}

// Core returns the core the process currently runs on.
func (p *Proc) Core() int { return p.core }

// ID returns the process id.
func (p *Proc) ID() int { return p.id }

// Read issues a synchronous parallel read of [offset, offset+length)
// from file; done fires on the process's core once the data has been
// consumed (merged and computed over). This is one IOR loop iteration.
func (p *Proc) Read(file pfs.FileID, offset, length units.Bytes, done sim.Event) {
	n := p.node
	n.cpu.Core(p.core).Submit(cpu.PrioProcess, cpu.CatSyscall, n.cfg.Costs.SyscallTime, func(units.Time) {
		n.startOp(p, file, offset, length, false, done)
	})
}

// Write issues a synchronous parallel write of [offset, offset+length)
// to file; done fires once every strip has been acknowledged by its
// server. The process first produces the data (the compute charge), so
// the strips leave from its own cache — there is no interrupt-locality
// question on the way out, which is the paper's reason for studying
// reads only.
func (p *Proc) Write(file pfs.FileID, offset, length units.Bytes, done sim.Event) {
	n := p.node
	produce := n.cfg.Costs.SyscallTime + units.Time(float64(length)*n.cfg.Costs.ComputePerByte)
	n.cpu.Core(p.core).Submit(cpu.PrioProcess, cpu.CatCompute, produce, func(units.Time) {
		n.startOp(p, file, offset, length, true, done)
	})
}

// startOp runs after the syscall cost; it resolves the layout (via the
// MDS on first touch) and fans the operation out to the I/O servers.
func (n *Node) startOp(p *Proc, file pfs.FileID, offset, length units.Bytes, isWrite bool, done sim.Event) {
	if _, ok := n.layouts[file]; !ok {
		n.opening[file] = append(n.opening[file], pendingOpen{offset: offset, length: length, isWrite: isWrite, proc: p, done: done})
		if len(n.opening[file]) == 1 {
			n.nextTag++
			tag := n.nextTag
			n.openTags[tag] = file
			st := &openState{tag: tag, issuedAt: n.eng.Now()}
			n.opens[file] = st
			n.sendLayoutRequest(file, tag)
			n.armOpenTimer(file, st)
		}
		return
	}
	if isWrite {
		n.issueWrite(p, file, offset, length, done)
	} else {
		n.issue(p, file, offset, length, done)
	}
}

// sendLayoutRequest asks the MDS for file's layout.
func (n *Node) sendLayoutRequest(file pfs.FileID, tag uint64) {
	n.stats.MetadataTrips++
	n.nic.Send(n.cfg.MDS, pfs.LayoutRequestSize, netsim.AffHint{}, &pfs.LayoutRequest{
		File: file, Tag: tag, Client: n.cfg.Node,
	})
}

// armOpenTimer schedules the metadata retry timeout, if enabled. Layout
// requests follow the same backoff schedule as data transfers but carry
// no deadline — an open is tiny and its retry budget bounds it alone.
func (n *Node) armOpenTimer(file pfs.FileID, st *openState) {
	if n.cfg.RetryTimeout <= 0 {
		return
	}
	st.timer = n.eng.After(n.cfg.RetryDelay(st.tag, st.retries), func(units.Time) {
		n.retryOpen(file, st)
	})
}

// retryOpen re-sends a layout request whose reply never came; after
// MaxRetries every operation parked on the file is abandoned with a
// typed error, so a lost open never strands transfers silently.
func (n *Node) retryOpen(file pfs.FileID, st *openState) {
	if n.opens[file] != st {
		return
	}
	if st.retries >= n.cfg.MaxRetries {
		delete(n.opens, file)
		delete(n.openTags, st.tag)
		parked := n.opening[file]
		delete(n.opening, file)
		for _, po := range parked {
			n.abandon(OpError{Write: po.isWrite, Client: n.cfg.Node, File: file, Tag: st.tag,
				Retries: st.retries, IssuedAt: st.issuedAt, FailedAt: n.eng.Now()})
		}
		return
	}
	st.retries++
	n.stats.Retries++
	n.tracef("client", "open file=%d retry %d: no layout reply", file, st.retries)
	n.sendLayoutRequest(file, st.tag)
	n.armOpenTimer(file, st)
}

// issueWrite pushes a transfer's strips to their servers and waits for
// acknowledgements.
func (n *Node) issueWrite(p *Proc, file pfs.FileID, offset, length units.Bytes, done sim.Event) {
	layout := n.layouts[file]
	plans, err := layout.Extents(offset, length)
	if err != nil {
		panic(fmt.Sprintf("client: extents: %v", err))
	}
	hint, err := n.msgr.Annotate(p.core)
	if err != nil {
		panic(fmt.Sprintf("client: hint: %v", err))
	}
	n.nextTag++
	tag := n.nextTag
	w := n.newWrite()
	w.proc, w.issuedAt, w.file, w.tag = p, n.eng.Now(), file, tag
	w.plans, w.hint, w.done = plans, hint, done
	for _, plan := range plans {
		w.remaining += len(plan.Pieces)
		for _, piece := range plan.Pieces {
			w.bytes += piece.Size
		}
	}
	n.writes[tag] = w
	n.sendWriteStrips(w, plans)
	n.armWriteTimer(w)
}

// sendWriteStrips pushes the strips covered by plans to their servers.
func (n *Node) sendWriteStrips(w *writeOp, plans []pfs.ServerPlan) {
	for _, plan := range plans {
		for _, piece := range plan.Pieces {
			n.nic.Send(plan.Server, piece.Size, w.hint, &pfs.StripWrite{
				File: w.file, Tag: w.tag, Client: n.cfg.Node,
				GlobalStrip: piece.GlobalStrip, ServerOffset: piece.ServerOffset,
				Size: piece.Size,
			})
		}
		if n.txObs != nil {
			n.txObs.NoteTransmit(uint64(plan.Server), w.proc.core)
		}
	}
}

// armWriteTimer schedules the write retry timeout, if enabled.
func (n *Node) armWriteTimer(w *writeOp) {
	if n.cfg.RetryTimeout <= 0 {
		return
	}
	w.timer = n.eng.After(n.retryDelayFor(w.tag, w.retries, w.issuedAt), func(units.Time) {
		n.retryWrite(w)
	})
}

// retryDelayFor is RetryDelay clamped so the timer never sleeps past
// the transfer deadline: the attempt that would cross it fires exactly
// at the deadline and resolves the transfer there instead.
func (n *Node) retryDelayFor(tag uint64, attempt int, issuedAt units.Time) units.Time {
	d := n.cfg.RetryDelay(tag, attempt)
	if dl := n.cfg.TransferDeadline; dl > 0 {
		if rem := issuedAt + dl - n.eng.Now(); rem > 0 && rem < d {
			d = rem
		}
	}
	return d
}

// retryWrite re-pushes unacknowledged strips. After MaxRetries — or,
// with a TransferDeadline configured, once the deadline passes — the
// write resolves: partially if any strips were acknowledged (graceful
// degradation), abandoned otherwise.
func (n *Node) retryWrite(w *writeOp) {
	if _, live := n.writes[w.tag]; !live {
		return
	}
	now := n.eng.Now()
	pastDeadline := n.cfg.TransferDeadline > 0 && now-w.issuedAt >= n.cfg.TransferDeadline
	if w.retries >= n.cfg.MaxRetries || pastDeadline {
		delete(n.writes, w.tag)
		if acked := ackedBytes(w.plans, w.acked); n.cfg.TransferDeadline > 0 && acked > 0 {
			n.completePartialWrite(w, acked)
			return
		}
		n.abandon(OpError{Write: true, Client: n.cfg.Node, File: w.file, Tag: w.tag, Retries: w.retries,
			IssuedAt: w.issuedAt, FailedAt: now})
		n.freeWrite(w)
		return
	}
	w.retries++
	n.stats.Retries++
	missing := missingPlans(w.plans, w.acked)
	n.countRetriedStrips(missing)
	n.sendWriteStrips(w, missing)
	n.armWriteTimer(w)
}

// completePartialWrite finishes a deadline-bound write with only its
// acknowledged strips: the typed partial record joins the failure list,
// the acknowledged bytes count as written, and the process wakes so the
// workload continues past the degraded operation.
func (n *Node) completePartialWrite(w *writeOp, acked units.Bytes) {
	p := w.proc
	missing := w.remaining
	n.tracef("client", "write tag=%d degrading to partial: %v acked, %d strips missing after %d retries",
		w.tag, acked, missing, w.retries)
	n.cpu.Core(p.core).Submit(cpu.PrioSoftirq, cpu.CatIRQ, n.cfg.Costs.WakeIPI, func(now units.Time) {
		n.stats.BytesWritten += acked
		n.stats.PartialTransfers++
		n.stats.PartialBytes += acked
		n.writeLatencies = append(n.writeLatencies, float64(now-w.issuedAt))
		n.opErrors = append(n.opErrors, OpError{Write: true, Client: n.cfg.Node, File: w.file,
			Tag: w.tag, Retries: w.retries, Partial: true, BytesDelivered: acked,
			StripsMissing: missing, IssuedAt: w.issuedAt, FailedAt: now})
		if w.done != nil {
			w.done(now)
		}
		n.freeWrite(w)
	})
}

// ackedBytes sums the payload of the strips already acknowledged.
func ackedBytes(plans []pfs.ServerPlan, acked map[int]bool) units.Bytes {
	var b units.Bytes
	for _, plan := range plans {
		for _, piece := range plan.Pieces {
			if acked[piece.GlobalStrip] {
				b += piece.Size
			}
		}
	}
	return b
}

// issue sends the per-server read requests for a transfer.
func (n *Node) issue(p *Proc, file pfs.FileID, offset, length units.Bytes, done sim.Event) {
	layout := n.layouts[file]
	plans, err := layout.Extents(offset, length)
	if err != nil {
		panic(fmt.Sprintf("client: extents: %v", err))
	}
	hint, err := n.msgr.Annotate(p.core)
	if err != nil {
		panic(fmt.Sprintf("client: hint: %v", err))
	}
	// The request has been stamped with the issuing core; if the
	// scheduler migrates the blocked process now, policy (i)'s hint goes
	// stale while policy (ii) (CurrentCoreHint) re-resolves it.
	if n.cfg.MigrateDuringBlock > 0 && n.rnd.Bool(n.cfg.MigrateDuringBlock) {
		p.core = n.leastLoadedCore(p.core)
	}
	n.nextTag++
	tag := n.nextTag
	rd := n.newRead()
	rd.proc, rd.issuedAt, rd.file, rd.tag = p, n.eng.Now(), file, tag
	rd.plans, rd.hint, rd.done = plans, hint, done
	rd.localEOF = func(idx int) units.Bytes { return layout.LocalBytes(idx) }
	for _, plan := range plans {
		rd.remaining += len(plan.Pieces)
	}
	if n.idleObs != nil {
		// Count the expected strips once, at issue: retries re-request
		// strips that are still outstanding, so they add nothing.
		for _, plan := range plans {
			rd.srvLeft[plan.Server] += len(plan.Pieces)
			n.flowOut[plan.Server] += len(plan.Pieces)
		}
	}
	if n.spans != nil {
		// The issue span opens here (post-migration, so the recorded core
		// is the one the request actually left from) and is closed by the
		// server when the request arrives.
		for _, plan := range plans {
			for _, piece := range plan.Pieces {
				n.spans.Begin(trace.PhaseIssue, rd.issuedAt,
					int(n.cfg.Node), int(plan.Server), tag, piece.GlobalStrip, p.core)
			}
		}
	}
	n.reads[tag] = rd
	n.sendReadRequests(rd, plans)
	n.armReadTimer(rd)
}

// sendReadRequests issues the per-server requests covering plans. With
// straggler-aware scheduling the requests go out slowest-server-first
// (by the EWMA of observed strip latency), so the straggler's service
// time overlaps the faster servers. The transmit observer, when set,
// samples each request's (flow, core) — the NIC tx path Flow Director
// and A-TFC learn from.
func (n *Node) sendReadRequests(rd *read, plans []pfs.ServerPlan) {
	if n.reorderIssue && len(plans) > 1 {
		ordered := append(make([]pfs.ServerPlan, 0, len(plans)), plans...)
		sort.SliceStable(ordered, func(i, j int) bool {
			return n.srvLat[ordered[i].Server] > n.srvLat[ordered[j].Server]
		})
		plans = ordered
	}
	for _, plan := range plans {
		n.nic.Send(plan.Server, pfs.RequestSize, rd.hint, &pfs.ReadRequest{
			File: rd.file, Tag: rd.tag, Client: n.cfg.Node, Pieces: plan.Pieces,
			LocalEOF: rd.localEOF(plan.ServerIdx),
		})
		if n.txObs != nil {
			n.txObs.NoteTransmit(uint64(plan.Server), rd.proc.core)
		}
	}
}

// armReadTimer schedules the retry timeout for rd, if enabled.
func (n *Node) armReadTimer(rd *read) {
	if n.cfg.RetryTimeout <= 0 {
		return
	}
	rd.timer = n.eng.After(n.retryDelayFor(rd.tag, rd.retries, rd.issuedAt), func(units.Time) {
		n.retryRead(rd)
	})
}

// retryRead re-issues requests covering strips that have not arrived.
// After MaxRetries — or, with a TransferDeadline configured, once the
// deadline passes — the transfer resolves: if any strips landed and the
// deadline is enabled it degrades to a partial result (the process
// consumes what arrived), otherwise it is abandoned.
func (n *Node) retryRead(rd *read) {
	if _, live := n.reads[rd.tag]; !live {
		return
	}
	now := n.eng.Now()
	pastDeadline := n.cfg.TransferDeadline > 0 && now-rd.issuedAt >= n.cfg.TransferDeadline
	if rd.retries >= n.cfg.MaxRetries || pastDeadline {
		delete(n.reads, rd.tag)
		// The missing strips will never be accepted (the tag is gone):
		// release their flow-idle accounting now.
		n.releaseFlows(rd)
		if n.cfg.TransferDeadline > 0 && len(rd.blocks) > 0 {
			rd.partial = true
			n.tracef("client", "read tag=%d degrading to partial: %v arrived, %d strips missing after %d retries",
				rd.tag, rd.bytes, rd.remaining, rd.retries)
			n.wake(rd, now)
			return
		}
		// Free the strips that did arrive; nobody will consume them.
		for _, b := range rd.blocks {
			n.caches.Release(b.id)
		}
		n.abandon(OpError{Client: n.cfg.Node, File: rd.file, Tag: rd.tag, Retries: rd.retries,
			IssuedAt: rd.issuedAt, FailedAt: now})
		n.freeRead(rd)
		return
	}
	rd.retries++
	n.stats.Retries++
	missing := missingPlans(rd.plans, rd.got)
	n.countRetriedStrips(missing)
	n.tracef("client", "read tag=%d retry %d: %d servers incomplete", rd.tag, rd.retries, len(missing))
	n.sendReadRequests(rd, missing)
	n.armReadTimer(rd)
}

// releaseFlows zeroes a resolving transfer's outstanding-strip counts,
// firing NoteFlowIdle for flows that drain to zero. It iterates the
// plan list (not the map) so the callback order is deterministic.
func (n *Node) releaseFlows(rd *read) {
	if n.idleObs == nil {
		return
	}
	for _, plan := range rd.plans {
		rem := rd.srvLeft[plan.Server]
		if rem <= 0 {
			continue
		}
		rd.srvLeft[plan.Server] = 0
		n.flowOut[plan.Server] -= rem
		if n.flowOut[plan.Server] == 0 {
			n.idleObs.NoteFlowIdle(uint64(plan.Server))
		}
	}
}

// abandon records a transfer that exhausted its retries: the typed
// error joins the node's failure list and the elapsed time joins the
// latency distribution, so the loss is accounted for rather than
// silently dropped.
func (n *Node) abandon(e OpError) {
	n.stats.FailedTransfers++
	n.opErrors = append(n.opErrors, e)
	elapsed := float64(e.FailedAt - e.IssuedAt)
	if e.Write {
		n.writeLatencies = append(n.writeLatencies, elapsed)
	} else {
		n.latencies = append(n.latencies, elapsed)
	}
	n.tracef("client", "%v", e)
}

// countRetriedStrips adds the pieces of the re-issued plans to the
// strip-retry counter.
func (n *Node) countRetriedStrips(plans []pfs.ServerPlan) {
	for _, plan := range plans {
		n.stats.StripsRetried += uint64(len(plan.Pieces))
	}
}

// missingPlans filters plans down to the pieces whose strips have not
// arrived/acked yet.
func missingPlans(plans []pfs.ServerPlan, got map[int]bool) []pfs.ServerPlan {
	var out []pfs.ServerPlan
	for _, plan := range plans {
		var pieces []pfs.Piece
		for _, piece := range plan.Pieces {
			if !got[piece.GlobalStrip] {
				pieces = append(pieces, piece)
			}
		}
		if len(pieces) > 0 {
			cp := plan
			cp.Pieces = pieces
			out = append(out, cp)
		}
	}
	return out
}

// onNICQueueInterrupt is the MSI-X per-queue interrupt line (hardware
// RSS): the queue's vector is raised and the redirection table — not a
// software policy — decides the core. Hints are ignored, as static
// vector assignment cannot follow them.
func (n *Node) onNICQueueInterrupt(q int, now units.Time) {
	for _, f := range n.nic.DrainQueue(q) {
		if !n.headerOK(f) {
			n.nic.Free(f)
			continue
		}
		dest := n.ioapic.Raise(DataVector+apic.Vector(q), apic.NoHint, uint64(f.Src))
		n.recordTransit(f, now, dest)
		n.frameq[dest] = append(n.frameq[dest], f)
		n.tracef("apic", "msix q%d frame from node %d routed to core %d", q, f.Src, dest)
	}
}

// onNICInterrupt is the NIC interrupt line: for every drained frame the
// I/O APIC (under the installed policy) picks a handling core, and the
// frame is queued for that core's local-APIC delivery.
func (n *Node) onNICInterrupt(now units.Time) {
	for _, f := range n.nic.Drain() {
		if !n.headerOK(f) {
			n.nic.Free(f)
			continue
		}
		hint := netsim.ParseHint(f)
		h := apic.NoHint
		if hint.Valid && hint.Core < n.cfg.Cores {
			h = hint.Core
		}
		if n.cfg.CurrentCoreHint && h != apic.NoHint {
			// Policy (ii): re-resolve the hint against the process's
			// current core (it may have been migrated while blocked).
			if sd, ok := f.Body.(*pfs.StripData); ok {
				if rd, live := n.reads[sd.Tag]; live {
					h = rd.proc.core
				}
			}
		}
		dest := n.ioapic.Raise(DataVector, h, uint64(f.Src))
		n.recordTransit(f, now, dest)
		n.frameq[dest] = append(n.frameq[dest], f)
		n.tracef("apic", "frame from node %d (%v) routed to core %d", f.Src, hint, dest)
	}
}

// recordTransit emits the frame's fabric and ring-dwell spans (from the
// stamps the NIC layer left on it) and opens the steering span, which
// the local-APIC delivery closes. Only strip data is tracked — layout
// and ack traffic has no per-strip identity.
func (n *Node) recordTransit(f *netsim.Frame, now units.Time, dest int) {
	if n.spans == nil {
		return
	}
	sd, ok := f.Body.(*pfs.StripData)
	if !ok {
		return
	}
	cl, srv := int(n.cfg.Node), int(f.Src)
	n.spans.Emit(trace.Span{Phase: trace.PhaseFabric, Start: f.SentAt, End: f.DeliveredAt,
		Client: cl, Server: srv, Tag: sd.Tag, Strip: sd.GlobalStrip, Core: -1})
	n.spans.Emit(trace.Span{Phase: trace.PhaseRing, Start: f.DeliveredAt, End: now,
		Client: cl, Server: srv, Tag: sd.Tag, Strip: sd.GlobalStrip, Core: -1})
	n.spans.Begin(trace.PhaseSteer, now, cl, srv, sd.Tag, sd.GlobalStrip, dest)
}

// headerOK validates the frame's IPv4 header; a corrupted header is
// dropped at the stack entrance and counted.
func (n *Node) headerOK(f *netsim.Frame) bool {
	if _, _, err := netsim.UnmarshalIPv4(f.Header); err != nil {
		n.stats.HeaderDrops++
		n.tracef("driver", "dropping frame from node %d: %v", f.Src, err)
		return false
	}
	return true
}

// handleIRQ runs when a local APIC delivers the vector to a core: pop
// one frame and process it in interrupt context on that core.
func (n *Node) handleIRQ(core int, now units.Time) {
	if len(n.frameq[core]) == 0 {
		return // spurious (frame dropped by ring overflow)
	}
	f := n.frameq[core][0]
	n.frameq[core] = n.frameq[core][1:]

	c := n.cpu.Core(core)
	c.Submit(cpu.PrioSoftirq, cpu.CatIRQ, n.cfg.Costs.IRQEntry, nil)
	switch body := f.Body.(type) {
	case *pfs.StripData:
		if n.spans != nil {
			// The local APIC has delivered: the steering decision is
			// realized, interrupt handling starts.
			cl := int(n.cfg.Node)
			n.spans.End(trace.PhaseSteer, now, cl, body.Tag, body.GlobalStrip, core)
			n.spans.Begin(trace.PhaseIRQ, now, cl, int(f.Src), body.Tag, body.GlobalStrip, core)
		}
		cost := units.Time(float64(f.Payload) * n.cfg.Costs.SoftirqPerByte)
		src, seq := f.Src, f.FlowSeq // captured: the frame is freed below
		c.Submit(cpu.PrioSoftirq, cpu.CatSoftirq, cost, func(now units.Time) {
			n.stripArrived(core, src, seq, body, now)
		})
	case *pfs.WriteAck:
		c.Submit(cpu.PrioSoftirq, cpu.CatSoftirq, units.Microsecond, func(now units.Time) {
			n.ackArrived(body, now)
		})
	case *pfs.LayoutReply:
		c.Submit(cpu.PrioSoftirq, cpu.CatSoftirq, 2*units.Microsecond, func(units.Time) {
			n.layoutArrived(body)
		})
	default:
		// Mid-strip fragments (Fragment wire mode) and stray traffic:
		// protocol processing proportional to the bytes carried.
		cost := units.Microsecond + units.Time(float64(f.Payload)*n.cfg.Costs.SoftirqPerByte)
		c.Submit(cpu.PrioSoftirq, cpu.CatSoftirq, cost, nil)
	}
	// The body pointer and payload size were captured above; the frame
	// itself is consumed and can be recycled.
	n.nic.Free(f)
}

// stripArrived deposits the strip into the handling core's cache and
// completes the transfer when it was the last one. The block size is
// the strip's declared size: in Fragment wire mode the descriptor rides
// the final fragment, but the whole strip has landed by then. src and
// seq identify the delivering frame's flow and sender-side sequence;
// a sequence regression within one (transfer, server) stream means two
// frames of the flow completed softirq processing out of send order —
// the reordering the Flow Director pathology produces.
func (n *Node) stripArrived(core int, src netsim.NodeID, seq uint64, sd *pfs.StripData, now units.Time) {
	rd, ok := n.reads[sd.Tag]
	if !ok {
		return // transfer already complete or abandoned
	}
	if rd.got[sd.GlobalStrip] {
		n.stats.DuplicateStrips++
		return // duplicate from a retry race
	}
	rd.got[sd.GlobalStrip] = true
	if last, ok := rd.lastSeq[src]; ok && seq < last {
		n.stats.ReorderedFrames++
		if depth := last - seq; depth > n.stats.ReorderDepthMax {
			n.stats.ReorderDepthMax = depth
		}
	} else {
		rd.lastSeq[src] = seq
	}
	if n.spans != nil {
		n.spans.End(trace.PhaseIRQ, now, int(n.cfg.Node), sd.Tag, sd.GlobalStrip, core)
	}
	n.stripHist.Add(float64(now - rd.issuedAt))
	if n.reorderIssue {
		// Per-server latency EWMA for straggler-aware issue ordering.
		sample := float64(now - rd.issuedAt)
		if prev, ok := n.srvLat[src]; ok {
			n.srvLat[src] = 0.8*prev + 0.2*sample
		} else {
			n.srvLat[src] = sample
		}
	}
	if n.idleObs != nil {
		rd.srvLeft[src]--
		n.flowOut[src]--
		if n.flowOut[src] == 0 {
			n.idleObs.NoteFlowIdle(uint64(src))
		}
	}
	n.nextBlock++
	id := n.nextBlock
	n.caches.Fill(core, id, sd.Size)
	rd.blocks = append(rd.blocks, blockRef{id: id, size: sd.Size, strip: sd.GlobalStrip})
	rd.bytes += sd.Size
	rd.remaining--
	if rd.remaining == 0 {
		delete(n.reads, sd.Tag)
		rd.timer.Cancel()
		n.tracef("client", "transfer tag=%d complete (%v), waking proc %d on core %d",
			sd.Tag, rd.bytes, rd.proc.id, rd.proc.core)
		n.wake(rd, now)
	}
}

// ackArrived completes one written strip; the last acknowledgement
// wakes the writing process.
func (n *Node) ackArrived(ack *pfs.WriteAck, _ units.Time) {
	w, ok := n.writes[ack.Tag]
	if !ok {
		return
	}
	if w.acked[ack.GlobalStrip] {
		n.stats.DuplicateStrips++
		return // duplicate ack from a retried strip
	}
	w.acked[ack.GlobalStrip] = true
	w.remaining--
	if w.remaining > 0 {
		return
	}
	delete(n.writes, ack.Tag)
	w.timer.Cancel()
	p := w.proc
	n.tracef("client", "write tag=%d complete (%v) on core %d", ack.Tag, w.bytes, p.core)
	n.cpu.Core(p.core).Submit(cpu.PrioSoftirq, cpu.CatIRQ, n.cfg.Costs.WakeIPI, func(now units.Time) {
		n.stats.BytesWritten += w.bytes
		n.stats.WriteTransfers++
		n.writeLatencies = append(n.writeLatencies, float64(now-w.issuedAt))
		if w.done != nil {
			w.done(now)
		}
		n.freeWrite(w)
	})
}

// layoutArrived installs a layout and issues the reads parked on it.
func (n *Node) layoutArrived(rep *pfs.LayoutReply) {
	file, ok := n.openTags[rep.Tag]
	if !ok {
		return
	}
	delete(n.openTags, rep.Tag)
	if st := n.opens[file]; st != nil {
		st.timer.Cancel()
		delete(n.opens, file)
	}
	n.layouts[file] = rep.Layout
	parked := n.opening[file]
	delete(n.opening, file)
	for _, po := range parked {
		if po.isWrite {
			n.issueWrite(po.proc, file, po.offset, po.length, po.done)
		} else {
			n.issue(po.proc, file, po.offset, po.length, po.done)
		}
	}
}

// newRead returns a recycled (or fresh) read record.
func (n *Node) newRead() *read {
	if k := len(n.freeReads); k > 0 {
		rd := n.freeReads[k-1]
		n.freeReads = n.freeReads[:k-1]
		return rd
	}
	return &read{
		got:     make(map[int]bool),
		lastSeq: make(map[netsim.NodeID]uint64),
		srvLeft: make(map[netsim.NodeID]int),
	}
}

// freeRead recycles a finished read record, keeping its map and slice
// capacity. Callers guarantee no timer or pending closure still refers
// to it: the transfer is out of n.reads and its retry timer has fired
// or been cancelled.
func (n *Node) freeRead(rd *read) {
	clear(rd.got)
	clear(rd.lastSeq)
	clear(rd.srvLeft)
	got, lastSeq, srvLeft, blocks := rd.got, rd.lastSeq, rd.srvLeft, rd.blocks[:0]
	*rd = read{got: got, lastSeq: lastSeq, srvLeft: srvLeft, blocks: blocks}
	n.freeReads = append(n.freeReads, rd)
}

// newWrite returns a recycled (or fresh) write record.
func (n *Node) newWrite() *writeOp {
	if k := len(n.freeWrites); k > 0 {
		w := n.freeWrites[k-1]
		n.freeWrites = n.freeWrites[:k-1]
		return w
	}
	return &writeOp{acked: make(map[int]bool)}
}

// freeWrite recycles a finished write record under the same contract
// as freeRead.
func (n *Node) freeWrite(w *writeOp) {
	clear(w.acked)
	acked := w.acked
	*w = writeOp{acked: acked}
	n.freeWrites = append(n.freeWrites, w)
}

// wake delivers the wakeup IPI to the process's core and schedules
// consumption.
func (n *Node) wake(rd *read, _ units.Time) {
	p := rd.proc
	c := n.cpu.Core(p.core)
	c.Submit(cpu.PrioSoftirq, cpu.CatIRQ, n.cfg.Costs.WakeIPI, func(units.Time) {
		n.consume(rd)
	})
}

// consume models the process reading every strip of the completed
// transfer on its core: stall costs depend on where each strip resides,
// then the per-byte compute runs, then the transfer's done event fires.
func (n *Node) consume(rd *read) {
	p := rd.proc
	c := n.cpu.Core(p.core)
	consumeStart := n.eng.Now()
	lineSize := n.caches.LineSize()
	var remoteLines, farLines, l3Lines, l3FarLines, memLines, localLines int64
	for _, b := range rd.blocks {
		lines := int64((b.size + lineSize - 1) / lineSize)
		kind, supplier := n.caches.ConsumeFrom(p.core, b.id)
		switch kind {
		case cache.HitLocal:
			localLines += lines
		case cache.HitRemote:
			if n.sameSocket(p.core, supplier) {
				remoteLines += lines
			} else {
				farLines += lines
			}
		case cache.HitL3:
			if n.sameSocket(p.core, supplier) {
				l3Lines += lines
			} else {
				l3FarLines += lines
			}
		case cache.MissMemory:
			memLines += lines
		}
		n.caches.Release(b.id)
	}
	costs := n.cfg.Costs
	// Compute-phase working-set accesses: mostly hits, with a small
	// scheduling-independent background miss floor.
	totalLines := localLines + remoteLines + farLines + l3Lines + l3FarLines + memLines
	if extra := uint64(float64(totalLines) * costs.ComputeAccessesPerLine); extra > 0 {
		bgMisses := uint64(float64(extra) * costs.BackgroundMissRate)
		n.caches.ChargeBackground(p.core, extra-bgMisses, bgMisses)
		memLines += int64(bgMisses)
	}
	far := costs.RemoteLineFar
	if far <= 0 {
		far = costs.RemoteLine
	}
	if d := units.Time(remoteLines)*costs.RemoteLine + units.Time(farLines)*far; d > 0 {
		c.Submit(cpu.PrioProcess, cpu.CatMigration, d, nil)
	}
	memStall := units.Time(memLines) * costs.MemLine
	memStall += units.Time(l3Lines) * costs.L3Line
	memStall += units.Time(l3FarLines) * far // cross-socket L3 rides HT
	if memStall > 0 {
		c.Submit(cpu.PrioProcess, cpu.CatMemStall, memStall, nil)
	}
	compute := units.Time(localLines)*costs.LocalLine +
		units.Time(float64(rd.bytes)*costs.ComputePerByte)
	c.Submit(cpu.PrioProcess, cpu.CatCompute, compute, func(now units.Time) {
		n.stats.BytesRead += rd.bytes
		if rd.partial {
			// Graceful degradation: the strips in hand reached the
			// application, but the transfer is recorded as a typed partial
			// result, not a completed one.
			n.stats.PartialTransfers++
			n.stats.PartialBytes += rd.bytes
			n.opErrors = append(n.opErrors, OpError{Client: n.cfg.Node, File: rd.file,
				Tag: rd.tag, Retries: rd.retries, Partial: true, BytesDelivered: rd.bytes,
				StripsMissing: rd.remaining, IssuedAt: rd.issuedAt, FailedAt: now})
		} else {
			n.stats.Transfers++
		}
		n.latencies = append(n.latencies, float64(now-rd.issuedAt))
		if n.spans != nil {
			// The whole transfer is consumed as one batch; every strip's
			// consume span covers the wake→compute-done window on the
			// process's core.
			for _, b := range rd.blocks {
				n.spans.Emit(trace.Span{Phase: trace.PhaseConsume,
					Start: consumeStart, End: now,
					Client: int(n.cfg.Node), Server: -1, Tag: rd.tag,
					Strip: b.strip, Core: p.core})
			}
		}
		if rd.done != nil {
			rd.done(now)
		}
		n.freeRead(rd)
	})
}

// sameSocket reports whether cores a and b share a socket under the
// configured topology (always true for SocketSize 0 — uniform).
func (n *Node) sameSocket(a, b int) bool {
	ss := n.cfg.Costs.SocketSize
	if ss <= 0 || b < 0 {
		return true
	}
	return a/ss == b/ss
}

// TransferBetween models an intra-node hand-off of bytes from the
// cache of srcCore to dstCore — the redistribution step of collective
// I/O (or any shared-memory exchange between co-located processes).
// The destination core pays per-line migration stalls priced by socket
// distance; a same-core transfer costs only local re-reads. done fires
// when the destination has absorbed the bytes.
func (n *Node) TransferBetween(srcCore, dstCore int, bytes units.Bytes, done sim.Event) {
	if bytes <= 0 {
		panic("client: TransferBetween with non-positive bytes")
	}
	if srcCore < 0 || srcCore >= n.cfg.Cores || dstCore < 0 || dstCore >= n.cfg.Cores {
		panic("client: TransferBetween core out of range")
	}
	costs := n.cfg.Costs
	lines := int64((bytes + n.caches.LineSize() - 1) / n.caches.LineSize())
	c := n.cpu.Core(dstCore)
	if srcCore == dstCore {
		n.caches.ChargeHits(dstCore, uint64(lines))
		c.Submit(cpu.PrioProcess, cpu.CatCompute, units.Time(lines)*costs.LocalLine, done)
		return
	}
	perLine := costs.RemoteLine
	if !n.sameSocket(srcCore, dstCore) && costs.RemoteLineFar > 0 {
		perLine = costs.RemoteLineFar
	}
	n.caches.ChargeRemote(dstCore, uint64(lines))
	c.Submit(cpu.PrioProcess, cpu.CatMigration, units.Time(lines)*perLine, done)
}

// leastLoadedCore returns the core with the smallest busy time,
// preferring any core other than exclude.
func (n *Node) leastLoadedCore(exclude int) int {
	best, bestBusy := exclude, units.Time(-1)
	for i := 0; i < n.cfg.Cores; i++ {
		if i == exclude {
			continue
		}
		busy := n.cpu.Core(i).Stats().Busy
		if bestBusy < 0 || busy < bestBusy {
			best, bestBusy = i, busy
		}
	}
	return best
}

// NICIngressBusy returns cumulative busy time of the NIC's receive
// serializer — the gauge for "is the client NIC the bottleneck".
func (n *Node) NICIngressBusy() units.Time { return n.nic.IngressBusy() }
