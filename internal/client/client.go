// Package client models the I/O client node — the machine whose
// interrupt scheduling the paper changes. It wires together the
// multi-core CPU, per-core caches, the NIC, the APIC pair, and an
// interrupt-scheduling policy, and implements the full life cycle of a
// parallel read:
//
//	syscall → per-server requests stamped with the core's aff_core_id →
//	strip data frames → NIC interrupt → policy picks handling core →
//	softirq protocol processing deposits the strip in that core's cache →
//	last strip wakes the process → the process consumes every strip
//	(local hit, cache-to-cache migration, or memory fill) and computes.
package client

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"sais/internal/apic"
	"sais/internal/cache"
	"sais/internal/cpu"
	"sais/internal/deque"
	"sais/internal/irqsched"
	"sais/internal/metrics"
	"sais/internal/netsim"
	"sais/internal/pfs"
	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/trace"
	"sais/internal/units"
)

// DataVector is the interrupt vector of the client NIC's receive queue
// 0; queue q raises DataVector+q.
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

// Validate rejects a negative or NaN cost, rate or fraction, and a
// background miss rate above one.
func (m CostModel) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"IRQEntry", float64(m.IRQEntry)}, {"SoftirqPerByte", m.SoftirqPerByte},
		{"SyscallTime", float64(m.SyscallTime)}, {"WakeIPI", float64(m.WakeIPI)},
		{"LocalLine", float64(m.LocalLine)}, {"RemoteLine", float64(m.RemoteLine)},
		{"RemoteLineFar", float64(m.RemoteLineFar)}, {"L3Line", float64(m.L3Line)},
		{"MemLine", float64(m.MemLine)}, {"SocketSize", float64(m.SocketSize)},
		{"ComputePerByte", m.ComputePerByte}, {"ComputeAccessesPerLine", m.ComputeAccessesPerLine},
		{"BackgroundMissRate", m.BackgroundMissRate},
	} {
		if f.v < 0 || math.IsNaN(f.v) {
			return fmt.Errorf("client: cost %s = %v must be a non-negative number", f.name, f.v)
		}
	}
	if m.BackgroundMissRate > 1 {
		return fmt.Errorf("client: cost BackgroundMissRate = %v above 1", m.BackgroundMissRate)
	}
	return nil
}

// Config describes one client node.
type Config struct {
	Node             netsim.NodeID
	Cores            int
	CachePerCore     units.Bytes
	NIC              netsim.NICConfig
	Policy           irqsched.PolicyKind
	IrqbalancePeriod units.Time
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
	// L3PerSocket attaches a shared victim L3 of this capacity to each
	// socket (the Opteron 2384's 6 MB L3). Zero disables it; strips
	// evicted from a private L2 then cost a full DRAM fill, as in the
	// calibrated baseline.
	L3PerSocket units.Bytes
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
	// RetryTimeout × RetryBackoff^k (before jitter), capped at
	// 8 × RetryTimeout. 0 selects the default factor 2; 1 restores the
	// fixed interval. Values in (0, 1) are invalid — retries never
	// speed up.
	RetryBackoff float64
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
// field is zero, and the cap on the backed-off interval as a multiple
// of RetryTimeout.
const (
	defaultRetryBackoff = 2.0
	defaultRetryJitter  = 0.1
	backoffCapMultiple  = 8
)

// The head node's clock rate and cache-line size (Opteron 2384).
const (
	clockRate             = 2700 * units.MHz
	cacheLine units.Bytes = 64
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
	limit := backoffCapMultiple * c.RetryTimeout
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
// 512 KiB private L2 per core with 64-byte lines, the given NIC rate,
// and the requested policy.
func DefaultConfig(node netsim.NodeID, nicRate units.Rate, policy irqsched.PolicyKind) Config {
	return Config{
		Node:             node,
		Cores:            8,
		CachePerCore:     512 * units.KiB,
		NIC:              netsim.DefaultNICConfig(nicRate),
		Policy:           policy,
		IrqbalancePeriod: 10 * units.Millisecond,
		LAPICLatency:     200 * units.Nanosecond,
		Costs:            DefaultCosts(),
		Seed:             1,
	}
}

// Validate checks the configuration New would build from, the NIC's
// included.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("client: cores %d must be positive", c.Cores)
	}
	desc, ok := irqsched.Describe(c.Policy)
	if !ok {
		return fmt.Errorf("client: %w", &irqsched.UnknownPolicyError{Kind: c.Policy})
	}
	switch {
	case desc.UsesHints && c.Cores > netsim.MaxCores:
		return fmt.Errorf("client: SAIs addresses at most %d cores, got %d", netsim.MaxCores, c.Cores)
	case c.CachePerCore <= 0:
		return fmt.Errorf("client: cache per core %v must be positive", c.CachePerCore)
	case c.L3PerSocket < 0:
		return fmt.Errorf("client: negative L3 per socket")
	case c.IrqbalancePeriod < 0:
		return fmt.Errorf("client: negative irqbalance period")
	case c.TimesliceQuantum < 0:
		return fmt.Errorf("client: negative timeslice quantum")
	case c.MigrateDuringBlock < 0 || c.MigrateDuringBlock > 1:
		return fmt.Errorf("client: MigrateDuringBlock %v outside [0,1]", c.MigrateDuringBlock)
	case c.RetryTimeout < 0:
		return fmt.Errorf("client: negative retry timeout")
	case c.MaxRetries < 0:
		return fmt.Errorf("client: negative max retries")
	case c.RetryBackoff != 0 && c.RetryBackoff < 1:
		return fmt.Errorf("client: retry backoff factor %v below 1 (retries never speed up)", c.RetryBackoff)
	case c.RetryJitter >= 1:
		return fmt.Errorf("client: retry jitter %v must stay below 1", c.RetryJitter)
	case c.TransferDeadline < 0:
		return fmt.Errorf("client: negative transfer deadline")
	case c.TransferDeadline > 0 && c.RetryTimeout <= 0:
		return fmt.Errorf("client: transfer deadline needs RetryTimeout > 0 (the deadline is enforced by the retry timer)")
	}
	if err := c.Costs.Validate(); err != nil {
		return err
	}
	return c.NIC.Validate()
}

// Stats is the client-node roll-up the experiments report.
type Stats struct {
	BytesRead       units.Bytes
	Transfers       uint64
	BytesWritten    units.Bytes
	WriteTransfers  uint64
	Interrupts      uint64
	HintedIRQs      uint64 // interrupts delivered to the core their aff_core_id named
	MetadataTrips   uint64
	Retries         uint64
	FailedTransfers uint64
	// StripsRetried counts the strips re-requested (reads) or re-sent
	// (writes) by the timeout recovery path.
	StripsRetried uint64
	// DuplicateStrips counts late strips and write acks discarded
	// because a retry had already delivered them.
	DuplicateStrips uint64
	// StrayStrips counts strips and write acks of a live transfer that
	// name a strip outside it, and strips from a server it did not ask;
	// both are discarded.
	StrayStrips uint64
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
//
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
	kind := "read"
	if e.Write {
		kind = "write"
	}
	if e.Partial {
		return fmt.Sprintf("client %d: %s of file %d (tag %d) degraded to partial at deadline: %v delivered, %d strips missing after %d retries (%v in flight)",
			e.Client, kind, e.File, e.Tag, e.BytesDelivered, e.StripsMissing, e.Retries, e.FailedAt-e.IssuedAt)
	}
	return fmt.Sprintf("client %d: %s of file %d (tag %d) abandoned after %d retries (%v in flight)",
		e.Client, kind, e.File, e.Tag, e.Retries, e.FailedAt-e.IssuedAt)
}

// op tracks one transfer, read or write, from its syscall to its
// resolution. The two kinds differ only where the protocols do: a read
// sends one request per server and its strips land in the handling
// cores' caches for the process to consume; a write pushes its strips
// and completes on their acknowledgements.
type op struct {
	n     *Node
	write bool
	proc  *Proc
	// file, offset and length are the request, kept while the layout is
	// in flight; done fires once the process has the result.
	file           pfs.FileID
	offset, length units.Bytes
	done           sim.Event
	issuedAt       units.Time
	tag            uint64
	layout         pfs.CheckedLayout
	plans          []pfs.ServerPlan
	hint           netsim.AffHint
	got            stripSet // arrived strips or acks, for dedupe and resend
	// flows holds a read's per-server receive state, parallel to plans.
	flows     []planFlow
	remaining int         // strips not yet arrived or acknowledged
	bytes     units.Bytes // payload delivered so far
	blocks    []blockRef  // a read's strips in the client caches
	retries   int
	// partial marks a deadline hit with strips in hand: the op completes
	// with what arrived. failed marks an abandoned op: it delivers
	// nothing and its process never wakes.
	partial, failed bool
	woke            units.Time // when a reader woke to consume
	timer           sim.Timer
	// Events bound once, when the record is created: the syscall's
	// completion starts the op, the retry timer re-sends what is
	// missing, the wake IPI resumes the process, and the consume
	// compute finishes a read.
	startFn, retryFn, wakeFn, finishFn sim.Event
}

// planFlow is one server's receive state within a read transfer.
type planFlow struct {
	// lastSeq is the highest Frame.FlowSeq accepted from the server
	// (valid once seen is set) — the receive-side reorder detector.
	lastSeq uint64
	seen    bool
	// left counts the server's outstanding strips, for the flow-idle
	// bookkeeping (maintained only when the router wants NoteFlowIdle
	// callbacks).
	left int
}

// stripSet marks the strips of one transfer, which are contiguous:
// has[i] is strip first+i.
type stripSet struct {
	first int
	has   []bool
}

// reset empties the set and sizes it to the n strips from first.
//
//saisvet:allocfree
func (s *stripSet) reset(first, n int) {
	s.first = first
	s.has = s.has[:0]
	for i := 0; i < n; i++ {
		s.has = append(s.has, false)
	}
}

// slot returns strip's index in has, or -1 for a strip outside the
// transfer.
//
//saisvet:allocfree
func (s *stripSet) slot(strip int) int {
	i := strip - s.first
	if i < 0 || i >= len(s.has) {
		return -1
	}
	return i
}

// contains reports whether strip is marked.
//
//saisvet:allocfree
func (s *stripSet) contains(strip int) bool {
	i := s.slot(strip)
	return i >= 0 && s.has[i]
}

// stripRange returns the first strip plans cover and how many: a
// transfer's pieces are one strip each, over a contiguous range.
func stripRange(plans []pfs.ServerPlan) (first, n int) {
	first = plans[0].Pieces[0].GlobalStrip
	for _, plan := range plans {
		if s := plan.Pieces[0].GlobalStrip; s < first {
			first = s
		}
		n += len(plan.Pieces)
	}
	return first, n
}

// planIndex returns the position of server's plan in plans, or -1.
//
//saisvet:allocfree
func planIndex(plans []pfs.ServerPlan, server netsim.NodeID) int {
	for i := range plans {
		if plans[i].Server == server {
			return i
		}
	}
	return -1
}

type blockRef struct {
	id    cache.Block
	size  units.Bytes
	strip int // global strip index, for span identity
}

// openState tracks the in-flight metadata request for one file, so a
// lost layout request or reply is retried instead of parking the file's
// operations forever.
type openState struct {
	tag     uint64
	retries int
	timer   sim.Timer
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
	// usesHints stamps every request with its issuing core's aff_core_id.
	usesHints bool
	rnd       *rng.Source
	// txObs/idleObs are the router's optional learning hooks (Flow
	// Director, A-TFC); nil for static policies.
	txObs   irqsched.TxObserver
	idleObs irqsched.FlowIdleObserver
	// ids is the fabric's node-id space; the two tables below are
	// indexed by NodeID over it.
	ids int
	// flowOut counts outstanding read strips per server across all
	// transfers; a flow's drop to zero fires NoteFlowIdle. Allocated
	// only when idleObs is set.
	flowOut []int
	// reorderIssue enables straggler-aware issue scheduling: srvLat is
	// the per-server EWMA of strip issue→arrival latency, send issues
	// read requests slowest-first, and issueOrder is its reused scratch
	// copy of the plans being sorted.
	reorderIssue bool
	srvLat       []latencyEWMA
	issueOrder   []pfs.ServerPlan

	layouts map[pfs.FileID]pfs.CheckedLayout
	// opening parks the ops issued before their file's layout arrived.
	opening  map[pfs.FileID][]*op
	opens    map[pfs.FileID]*openState
	openTags map[uint64]pfs.FileID
	// ops holds the issued, unresolved transfers of both kinds by tag.
	ops     map[uint64]*op
	nextTag uint64
	// freeOps recycles transfer records (their bound events and interior
	// slice capacity): one record per transfer is the client's highest
	// allocation churn after frames. A record is freed only in its final
	// event (finish), when no timer or event references it.
	freeOps []*op
	// frameq holds frames routed to each core, consumed by the local
	// APIC handler in FIFO order.
	frameq []deque.Deque[*netsim.Frame]
	// freeSoftirqs recycles the per-frame softirq jobs of handleIRQ.
	freeSoftirqs []*softirqJob
	stats        Stats
	// latencies holds completed read-transfer latencies in nanoseconds,
	// for percentile reporting; writeLatencies the same for writes.
	// Abandoned operations contribute their time-to-failure so loss
	// never silently improves the distribution.
	latencies      []float64
	writeLatencies []float64
	opErrors       []OpError
	// spans, when non-nil, records the full lifecycle of every strip.
	spans *trace.SpanLog
	// stripHist accumulates per-strip issue→arrival latency (ns); it is
	// always on — the fixed-shape histogram costs one array index per
	// strip.
	stripHist metrics.Histogram
}

// latencyEWMA is one server's strip-latency average (ns), valid once
// seen is set.
type latencyEWMA struct {
	ns   float64
	seen bool
}

// Latencies returns the completed read-transfer latencies (ns).
func (n *Node) Latencies() []float64 { return n.latencies }

// WriteLatencies returns the completed write-transfer latencies (ns).
func (n *Node) WriteLatencies() []float64 { return n.writeLatencies }

// OpErrors returns the typed failure record of every transfer that
// exhausted its retries.
func (n *Node) OpErrors() []OpError { return n.opErrors }

// SetSpanLog attaches the lifecycle span recorder; nil (the default)
// disables span tracing entirely — no allocation on any hot path.
func (n *Node) SetSpanLog(l *trace.SpanLog) { n.spans = l }

// StripLatencies returns the per-strip issue→arrival latency histogram
// (nanoseconds).
func (n *Node) StripLatencies() *metrics.Histogram { return &n.stripHist }

// loadAdapter exposes core load to the irqbalance policy.
type loadAdapter struct{ c *cpu.CPU }

func (l loadAdapter) NumCores() int             { return l.c.NumCores() }
func (l loadAdapter) CoreBusy(i int) units.Time { return l.c.Core(i).Stats().Busy }
func (l loadAdapter) CoreQueue(i int) int       { return l.c.Core(i).QueueLen() }

// New builds a client node and attaches it to fab. It returns an error
// on invalid configuration.
func New(eng *sim.Engine, fab *netsim.Fabric, cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	desc, _ := irqsched.Describe(cfg.Policy) // Validate vouched for the kind
	if desc.MSIX {
		// Hardware RSS: one MSI-X receive queue per core.
		cfg.NIC.RxQueues = cfg.Cores
	}
	n := &Node{
		cfg:      cfg,
		eng:      eng,
		cpu:      cpu.New(eng, cfg.Cores, clockRate),
		caches:   cache.NewSystem(cfg.Cores, cfg.CachePerCore, cacheLine),
		nic:      netsim.NewNIC(eng, cfg.Node, cfg.NIC),
		rnd:      rng.New(cfg.Seed).Split(fmt.Sprintf("client%d", cfg.Node)),
		layouts:  make(map[pfs.FileID]pfs.CheckedLayout),
		opening:  make(map[pfs.FileID][]*op),
		opens:    make(map[pfs.FileID]*openState),
		openTags: make(map[uint64]pfs.FileID),
		ops:      make(map[uint64]*op),
		frameq:   make([]deque.Deque[*netsim.Frame], cfg.Cores),
		ids:      fab.IDs(),
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
	for _, l := range n.locals {
		l.SetHandler(n.handleIRQ)
	}
	n.ioapic = apic.NewIOAPIC(eng, n.locals)
	router, err := irqsched.New(cfg.Policy, irqsched.Options{
		Loads:      loadAdapter{n.cpu},
		Period:     cfg.IrqbalancePeriod,
		SocketSize: cfg.Costs.SocketSize,
		Cores:      cfg.Cores,
	})
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	n.router = router
	if desc.MSIX {
		// Hardware RSS: one vector per queue, statically pinned via the
		// redirection table, so the router never has a choice.
		for q := 0; q < cfg.Cores; q++ {
			n.ioapic.Program(DataVector+apic.Vector(q), []int{q})
		}
	}
	n.ioapic.SetRouter(n.router)
	n.usesHints = desc.UsesHints
	n.txObs, _ = n.router.(irqsched.TxObserver)
	n.idleObs, _ = n.router.(irqsched.FlowIdleObserver)
	if n.idleObs != nil {
		n.flowOut = make([]int, n.ids)
	}
	n.reorderIssue = desc.ReorderIssue
	if n.reorderIssue {
		n.srvLat = make([]latencyEWMA, n.ids)
	}
	n.nic.SetInterruptHandler(n.onNICInterrupt)
	return n, nil
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
	if cr, ok := n.router.(irqsched.CounterReporter); ok {
		s.PolicyCounters = cr.Counters()
	}
	return s
}

// Proc is an application process pinned to a core (until an explicit
// wake-time migration).
type Proc struct {
	core int
	node *Node
}

// NewProc creates a process on the given core.
func (n *Node) NewProc(core int) *Proc {
	if core < 0 || core >= n.cfg.Cores {
		panic(fmt.Sprintf("client: proc core %d out of range", core))
	}
	return &Proc{core: core, node: n}
}

// Read issues a synchronous parallel read of [offset, offset+length)
// from file; done fires on the process's core once the data has been
// consumed (merged and computed over). This is one IOR loop iteration.
func (p *Proc) Read(file pfs.FileID, offset, length units.Bytes, done sim.Event) {
	n := p.node
	o := n.newOp(p, false, file, offset, length, done)
	n.cpu.Core(p.core).Submit(cpu.PrioProcess, cpu.CatSyscall, n.cfg.Costs.SyscallTime, o.startFn)
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
	o := n.newOp(p, true, file, offset, length, done)
	n.cpu.Core(p.core).Submit(cpu.PrioProcess, cpu.CatCompute, produce, o.startFn)
}

// start runs after the syscall (a write's: after producing the data);
// it resolves the layout (via the MDS on first touch, parking the op
// until the reply) and fans the operation out to the I/O servers. A
// parked op is stamped with its park time, so an op failed by a lost
// open reports its own issue time.
func (o *op) start(now units.Time) {
	n, file := o.n, o.file
	if _, ok := n.layouts[file]; !ok {
		o.issuedAt = now
		n.opening[file] = append(n.opening[file], o)
		if len(n.opening[file]) == 1 {
			n.nextTag++
			tag := n.nextTag
			n.openTags[tag] = file
			st := &openState{tag: tag}
			n.opens[file] = st
			n.sendLayoutRequest(file, tag)
			n.armOpenTimer(file, st)
		}
		return
	}
	n.issue(o)
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
// typed error under a tag of its own, so a lost open never strands
// transfers silently and each error names one op.
func (n *Node) retryOpen(file pfs.FileID, st *openState) {
	if n.opens[file] != st {
		return
	}
	if st.retries >= n.cfg.MaxRetries {
		delete(n.opens, file)
		delete(n.openTags, st.tag)
		parked := n.opening[file]
		delete(n.opening, file)
		for _, o := range parked {
			n.nextTag++
			o.tag, o.retries, o.failed = n.nextTag, st.retries, true
			o.finish(n.eng.Now())
		}
		return
	}
	st.retries++
	n.stats.Retries++
	n.sendLayoutRequest(file, st.tag)
	n.armOpenTimer(file, st)
}

// issue stamps the op with a tag and the issuing core's hint, sends it
// to its servers and arms its retry timer.
func (n *Node) issue(o *op) {
	layout := n.layouts[o.file]
	plans, err := layout.Extents(o.offset, o.length)
	if err != nil {
		panic(fmt.Sprintf("client: extents: %v", err))
	}
	p := o.proc
	var hint netsim.AffHint
	if n.usesHints {
		// Validate bounds Cores by netsim.MaxCores under hint policies.
		hint = netsim.Hint(p.core)
	}
	// The request has been stamped with the issuing core; if the
	// scheduler migrates a blocked reader now, policy (i)'s hint goes
	// stale while policy (ii) (CurrentCoreHint) re-resolves it.
	if !o.write && n.cfg.MigrateDuringBlock > 0 && n.rnd.Bool(n.cfg.MigrateDuringBlock) {
		p.core = n.leastLoadedCore(p.core)
	}
	n.nextTag++
	o.tag, o.issuedAt = n.nextTag, n.eng.Now()
	o.layout, o.plans, o.hint = layout, plans, hint
	o.got.reset(stripRange(plans))
	o.remaining = len(o.got.has)
	if !o.write {
		for _, plan := range plans {
			fl := planFlow{}
			if n.idleObs != nil {
				// Count the expected strips once, at issue: retries
				// re-request strips still outstanding, so they add nothing.
				fl.left = len(plan.Pieces)
				n.flowOut[plan.Server] += fl.left
			}
			o.flows = append(o.flows, fl)
			if n.spans == nil {
				continue
			}
			// The issue span opens here (post-migration, so the recorded
			// core is the one the request actually left from) and is
			// closed by the server when the request arrives.
			for _, piece := range plan.Pieces {
				n.spans.Begin(trace.PhaseIssue, o.issuedAt,
					int(n.cfg.Node), int(plan.Server), o.tag, piece.GlobalStrip, p.core)
			}
		}
	}
	n.ops[o.tag] = o
	n.send(o, plans)
	n.arm(o)
}

// send puts plans on the wire: a read sends one request per server, a
// write the data of every strip. With straggler-aware scheduling read
// requests go out slowest-server-first (by the EWMA of observed strip
// latency), so the straggler's service time overlaps the faster
// servers. The transmit observer, when set, samples each server's
// (flow, core) — the NIC tx path Flow Director and A-TFC learn from.
func (n *Node) send(o *op, plans []pfs.ServerPlan) {
	if n.reorderIssue && !o.write && len(plans) > 1 {
		n.issueOrder = append(n.issueOrder[:0], plans...)
		slices.SortStableFunc(n.issueOrder, func(a, b pfs.ServerPlan) int {
			return cmp.Compare(n.srvLat[b.Server].ns, n.srvLat[a.Server].ns)
		})
		plans = n.issueOrder
	}
	for _, plan := range plans {
		if o.write {
			for _, piece := range plan.Pieces {
				n.nic.Send(plan.Server, piece.Size, o.hint, &pfs.StripWrite{
					File: o.file, Tag: o.tag, Client: n.cfg.Node,
					GlobalStrip: piece.GlobalStrip, ServerOffset: piece.ServerOffset,
					Size: piece.Size,
				})
			}
		} else {
			n.nic.Send(plan.Server, pfs.RequestSize, o.hint, &pfs.ReadRequest{
				File: o.file, Tag: o.tag, Client: n.cfg.Node, Pieces: plan.Pieces,
				LocalEOF: o.layout.LocalBytes(plan.ServerIdx),
			})
		}
		if n.txObs != nil {
			n.txObs.NoteTransmit(uint64(plan.Server), o.proc.core)
		}
	}
}

// arm schedules o's retry timeout, if enabled. The delay follows
// RetryDelay, clamped so the timer never sleeps past the transfer
// deadline: the attempt that would cross it fires exactly at the
// deadline and resolves the op there instead.
func (n *Node) arm(o *op) {
	if n.cfg.RetryTimeout <= 0 {
		return
	}
	d := n.cfg.RetryDelay(o.tag, o.retries)
	if dl := n.cfg.TransferDeadline; dl > 0 {
		if rem := o.issuedAt + dl - n.eng.Now(); rem > 0 && rem < d {
			d = rem
		}
	}
	o.timer = n.eng.After(d, o.retryFn)
}

// retry re-sends what has not arrived: the requests covering a read's
// missing strips, or a write's unacknowledged strips. After MaxRetries
// — or, with a TransferDeadline configured, once the deadline passes —
// the op resolves instead: if strips were delivered and the deadline
// is enabled it degrades to a partial result (a reader consumes what
// arrived), otherwise it is abandoned.
func (o *op) retry(units.Time) {
	n := o.n
	if n.ops[o.tag] != o {
		return
	}
	now := n.eng.Now()
	pastDeadline := n.cfg.TransferDeadline > 0 && now-o.issuedAt >= n.cfg.TransferDeadline
	if o.retries >= n.cfg.MaxRetries || pastDeadline {
		delete(n.ops, o.tag)
		// The missing strips will never be accepted (the tag is gone):
		// release their flow-idle accounting now.
		n.releaseFlows(o)
		if n.cfg.TransferDeadline > 0 && o.bytes > 0 {
			o.partial = true
			n.wake(o)
			return
		}
		o.failed = true
		o.finish(now)
		return
	}
	o.retries++
	n.stats.Retries++
	missing := missingPlans(o.plans, &o.got)
	for _, plan := range missing {
		n.stats.StripsRetried += uint64(len(plan.Pieces))
	}
	n.send(o, missing)
	n.arm(o)
}

// releaseFlows zeroes a resolving read's outstanding-strip counts,
// firing NoteFlowIdle for flows that drain to zero. It iterates the
// plan list so the callback order is deterministic.
func (n *Node) releaseFlows(o *op) {
	if n.idleObs == nil {
		return
	}
	for i := range o.flows {
		rem, srv := o.flows[i].left, o.plans[i].Server
		if rem <= 0 {
			continue
		}
		o.flows[i].left = 0
		n.flowOut[srv] -= rem
		if n.flowOut[srv] == 0 {
			n.idleObs.NoteFlowIdle(uint64(srv))
		}
	}
}

// missingPlans filters plans down to the pieces whose strips have not
// arrived/acked yet.
func missingPlans(plans []pfs.ServerPlan, got *stripSet) []pfs.ServerPlan {
	var out []pfs.ServerPlan
	for _, plan := range plans {
		var pieces []pfs.Piece
		for _, piece := range plan.Pieces {
			if !got.contains(piece.GlobalStrip) {
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

// onNICInterrupt is the NIC's interrupt line: for every frame drained
// from queue q it raises the queue's vector (DataVector+q), the I/O
// APIC picks a handling core — by redirection table under hardware
// RSS, by the installed policy otherwise — and the frame is queued for
// that core's local-APIC delivery. An interrupt counts as hinted when
// it lands on the core its aff_core_id named.
func (n *Node) onNICInterrupt(q int, now units.Time) {
	for _, f := range n.nic.Drain(q) {
		hint, ok := n.readHeader(f)
		if !ok {
			n.nic.Free(f)
			continue
		}
		h := apic.NoHint
		if hint.Valid && hint.Core < n.cfg.Cores {
			h = hint.Core
		}
		if n.cfg.CurrentCoreHint && h != apic.NoHint {
			// Policy (ii): re-resolve the hint against the process's
			// current core (it may have been migrated while blocked).
			if sd, ok := f.Body.(*pfs.StripData); ok {
				if o := n.live(sd.Tag, false); o != nil {
					h = o.proc.core
				}
			}
		}
		dest := n.ioapic.Raise(DataVector+apic.Vector(q), h, uint64(f.Src))
		if h != apic.NoHint && dest == h {
			n.stats.HintedIRQs++
		}
		n.recordTransit(f, now, dest)
		n.frameq[dest].PushBack(f)
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

// readHeader validates the frame's IPv4 header and parses the hint it
// carries (the SrcParser step) in one decode. A corrupted header is
// dropped at the stack entrance and counted: ok is false.
func (n *Node) readHeader(f *netsim.Frame) (hint netsim.AffHint, ok bool) {
	hint, err := netsim.ReadHint(f)
	if err != nil {
		n.stats.HeaderDrops++
		return netsim.AffHint{}, false
	}
	return hint, true
}

// handleIRQ runs when a local APIC delivers the vector to a core: pop
// one frame and process it in interrupt context on that core.
func (n *Node) handleIRQ(core int, now units.Time) {
	if n.frameq[core].Len() == 0 {
		return // spurious (frame dropped by ring overflow)
	}
	f := n.frameq[core].PopFront()

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
		c.Submit(cpu.PrioSoftirq, cpu.CatSoftirq, cost, n.newSoftirq(core, f))
	case *pfs.WriteAck:
		c.Submit(cpu.PrioSoftirq, cpu.CatSoftirq, units.Microsecond, n.newSoftirq(core, f))
	case *pfs.LayoutReply:
		c.Submit(cpu.PrioSoftirq, cpu.CatSoftirq, 2*units.Microsecond, n.newSoftirq(core, f))
	default:
		// Stray traffic (e.g. interrupt-storm junk frames): protocol
		// processing proportional to the bytes carried.
		cost := units.Microsecond + units.Time(float64(f.Payload)*n.cfg.Costs.SoftirqPerByte)
		c.Submit(cpu.PrioSoftirq, cpu.CatSoftirq, cost, nil)
	}
	// The body pointer and payload size were captured above; the frame
	// itself is consumed and can be recycled.
	n.nic.Free(f)
}

// softirqJob is the protocol-processing completion of one received
// message, run on the core that took its interrupt. Jobs are pooled per
// node and their run event is bound once, so a frame's softirq stage
// allocates nothing; the job captures what it needs from the frame,
// which handleIRQ frees before the job runs.
type softirqJob struct {
	n     *Node
	core  int
	src   netsim.NodeID
	seq   uint64 // the frame's FlowSeq
	body  any
	runFn sim.Event
}

// newSoftirq returns a pooled job for frame f taken on core.
//
//saisvet:allocfree
func (n *Node) newSoftirq(core int, f *netsim.Frame) sim.Event {
	var j *softirqJob
	if k := len(n.freeSoftirqs); k > 0 {
		j = n.freeSoftirqs[k-1]
		n.freeSoftirqs = n.freeSoftirqs[:k-1]
	} else {
		//lint:alloc pool growth: one job per peak number of softirqs in flight
		j = &softirqJob{n: n}
		j.runFn = j.run
	}
	j.core, j.src, j.seq, j.body = core, f.Src, f.FlowSeq, f.Body
	return j.runFn
}

// run dispatches the message and returns the job to the pool first, so
// a handler that takes another interrupt may reuse it.
func (j *softirqJob) run(now units.Time) {
	n, core, src, seq, body := j.n, j.core, j.src, j.seq, j.body
	j.body = nil
	n.freeSoftirqs = append(n.freeSoftirqs, j)
	switch body := body.(type) {
	case *pfs.StripData:
		n.stripArrived(core, src, seq, body, now)
	case *pfs.WriteAck:
		n.ackArrived(body)
	case *pfs.LayoutReply:
		n.layoutArrived(body)
	}
}

// stripArrived deposits the strip into the handling core's cache and
// completes the transfer when it was the last one. src and seq
// identify the delivering frame's flow and sender-side sequence; a
// sequence regression within one (transfer, server) stream means two
// frames of the flow completed softirq processing out of send order —
// the reordering the Flow Director pathology produces.
func (n *Node) stripArrived(core int, src netsim.NodeID, seq uint64, sd *pfs.StripData, now units.Time) {
	o := n.live(sd.Tag, false)
	if o == nil {
		return // transfer already complete or abandoned
	}
	pos := planIndex(o.plans, src)
	if pos < 0 {
		n.stats.StrayStrips++
		return // not from a server the transfer asked
	}
	if !n.accept(o, sd.GlobalStrip) {
		return
	}
	fl := &o.flows[pos]
	if fl.seen && seq < fl.lastSeq {
		n.stats.ReorderedFrames++
		if depth := fl.lastSeq - seq; depth > n.stats.ReorderDepthMax {
			n.stats.ReorderDepthMax = depth
		}
	} else {
		fl.lastSeq, fl.seen = seq, true
	}
	if n.spans != nil {
		n.spans.End(trace.PhaseIRQ, now, int(n.cfg.Node), sd.Tag, sd.GlobalStrip, core)
	}
	n.stripHist.Add(float64(now - o.issuedAt))
	if n.reorderIssue {
		// Per-server latency EWMA for straggler-aware issue ordering.
		sample := float64(now - o.issuedAt)
		if lat := &n.srvLat[src]; lat.seen {
			lat.ns = 0.8*lat.ns + 0.2*sample
		} else {
			lat.ns, lat.seen = sample, true
		}
	}
	if n.idleObs != nil {
		fl.left--
		n.flowOut[src]--
		if n.flowOut[src] == 0 {
			n.idleObs.NoteFlowIdle(uint64(src))
		}
	}
	b := n.caches.Fill(core, sd.Size)
	o.blocks = append(o.blocks, blockRef{id: b, size: sd.Size, strip: sd.GlobalStrip})
	n.delivered(o, sd.Size)
}

// ackArrived completes one written strip; the last acknowledgement
// wakes the writing process.
func (n *Node) ackArrived(ack *pfs.WriteAck) {
	if o := n.live(ack.Tag, true); o != nil && n.accept(o, ack.GlobalStrip) {
		n.delivered(o, ack.Size)
	}
}

// live returns the unresolved op of the given kind that tag names, or
// nil. A strip naming a write's tag, or an ack naming a read's, is
// dropped like one naming a finished op.
func (n *Node) live(tag uint64, write bool) *op {
	if o := n.ops[tag]; o != nil && o.write == write {
		return o
	}
	return nil
}

// accept marks strip arrived (or acknowledged) on o. It reports false,
// counting the drop, for a strip outside o and for a duplicate that a
// retry race delivered twice.
//
//saisvet:allocfree
func (n *Node) accept(o *op, strip int) bool {
	slot := o.got.slot(strip)
	if slot < 0 {
		n.stats.StrayStrips++
		return false
	}
	if o.got.has[slot] {
		n.stats.DuplicateStrips++
		return false
	}
	o.got.has[slot] = true
	return true
}

// delivered adds an accepted strip's payload to o; the last strip
// resolves the op and wakes its process.
func (n *Node) delivered(o *op, size units.Bytes) {
	o.bytes += size
	o.remaining--
	if o.remaining == 0 {
		delete(n.ops, o.tag)
		o.timer.Cancel()
		n.wake(o)
	}
}

// layoutArrived installs a layout and issues the ops parked on it.
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
	layout, err := rep.Layout.Check()
	if err != nil {
		panic(fmt.Sprintf("client: layout of file %d: %v", file, err))
	}
	for _, s := range layout.Servers {
		if s < 0 || int(s) >= n.ids {
			panic(fmt.Sprintf("client: layout of file %d names server %d outside the fabric's id space", file, s))
		}
	}
	n.layouts[file] = layout
	parked := n.opening[file]
	delete(n.opening, file)
	for _, o := range parked {
		n.issue(o)
	}
}

// newOp returns a recycled (or fresh) record for one transfer. A fresh
// record binds its events here, once, so no transfer allocates a
// closure.
//
//saisvet:allocfree
func (n *Node) newOp(p *Proc, write bool, file pfs.FileID, offset, length units.Bytes, done sim.Event) *op {
	var o *op
	if k := len(n.freeOps); k > 0 {
		o = n.freeOps[k-1]
		n.freeOps = n.freeOps[:k-1]
	} else {
		//lint:alloc pool growth: one record per peak number of transfers in flight
		o = &op{n: n}
		o.startFn, o.retryFn, o.wakeFn, o.finishFn = o.start, o.retry, o.consume, o.finish
	}
	o.write, o.proc, o.file, o.offset, o.length, o.done = write, p, file, offset, length, done
	return o
}

// freeOp recycles a resolved record, keeping its bound events and
// slice capacity. Callers guarantee no timer or pending event still
// refers to it: the op is out of n.ops and its retry timer has fired
// or been cancelled.
//
//saisvet:allocfree
func (n *Node) freeOp(o *op) {
	*o = op{n: n, got: stripSet{has: o.got.has[:0]}, flows: o.flows[:0], blocks: o.blocks[:0],
		startFn: o.startFn, retryFn: o.retryFn, wakeFn: o.wakeFn, finishFn: o.finishFn}
	n.freeOps = append(n.freeOps, o)
}

// wake delivers the wakeup IPI to the process's core, which then
// consumes a read's strips or returns from a write.
func (n *Node) wake(o *op) {
	n.cpu.Core(o.proc.core).Submit(cpu.PrioSoftirq, cpu.CatIRQ, n.cfg.Costs.WakeIPI, o.wakeFn)
}

// consume runs on the woken process's core. A write is done; a read's
// strips are consumed first: stall costs depend on where each strip
// resides, then the per-byte compute runs, then the op finishes.
func (o *op) consume(now units.Time) {
	if o.write {
		o.finish(now)
		return
	}
	n, p := o.n, o.proc
	c := n.cpu.Core(p.core)
	o.woke = n.eng.Now()
	lineSize := n.caches.LineSize()
	var remoteLines, farLines, l3Lines, l3FarLines, memLines, localLines int64
	for _, b := range o.blocks {
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
		n.caches.ChargeBackground(extra-bgMisses, bgMisses)
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
		units.Time(float64(o.bytes)*costs.ComputePerByte)
	c.Submit(cpu.PrioProcess, cpu.CatCompute, compute, o.finishFn)
}

// finish accounts for a resolved op — completed, partial or abandoned,
// read or write — and recycles its record. Both failure modes surface
// as a typed OpError, and every op's elapsed time joins the latency
// distribution, so loss never silently improves it. A completed or
// partial op delivered its bytes to the application and fires done.
func (o *op) finish(now units.Time) {
	n := o.n
	latencies, moved := &n.latencies, &n.stats.BytesRead
	if o.write {
		latencies, moved = &n.writeLatencies, &n.stats.BytesWritten
	}
	*latencies = append(*latencies, float64(now-o.issuedAt))
	e := OpError{Write: o.write, Client: n.cfg.Node, File: o.file, Tag: o.tag,
		Retries: o.retries, IssuedAt: o.issuedAt, FailedAt: now}
	switch {
	case o.failed:
		// Free the strips that did arrive; nobody will consume them.
		for _, b := range o.blocks {
			n.caches.Release(b.id)
		}
		n.stats.FailedTransfers++
		n.opErrors = append(n.opErrors, e)
		n.freeOp(o)
		return
	case o.partial:
		// Graceful degradation: the strips in hand reached the
		// application, but the op is recorded as a typed partial result,
		// not a completed one.
		e.Partial, e.BytesDelivered, e.StripsMissing = true, o.bytes, o.remaining
		n.stats.PartialTransfers++
		n.stats.PartialBytes += o.bytes
		n.opErrors = append(n.opErrors, e)
	case o.write:
		n.stats.WriteTransfers++
	default:
		n.stats.Transfers++
	}
	*moved += o.bytes
	if n.spans != nil {
		// A read is consumed as one batch; every strip's consume span
		// covers the wake→compute-done window on the process's core.
		for _, b := range o.blocks {
			n.spans.Emit(trace.Span{Phase: trace.PhaseConsume, Start: o.woke, End: now,
				Client: int(n.cfg.Node), Server: -1, Tag: o.tag, Strip: b.strip, Core: o.proc.core})
		}
	}
	done := o.done
	n.freeOp(o)
	if done != nil {
		done(now)
	}
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
