// Package apic models the x86 interrupt-delivery hardware the paper
// programs: one I/O APIC (shared by the node's devices) routing
// interrupt messages to per-core Local APICs. The I/O APIC consults a
// redirection table to learn which cores may handle a vector and asks
// an installed Router (the scheduling policy — irqbalance, round-robin,
// dedicated, or SAIs' source-aware IMComposer) to choose among them.
package apic

import (
	"fmt"

	"sais/internal/sim"
	"sais/internal/units"
)

// Vector is an interrupt vector number.
type Vector uint8

// NoHint is the hint value meaning "no affinity information" — a packet
// without an aff_core_id option.
const NoHint = -1

// Message is a composed interrupt message headed for a Local APIC.
type Message struct {
	Vector Vector
	Dest   int // destination core
}

// Router chooses the destination core for an interrupt. hint carries
// the parsed aff_core_id (or NoHint); flow identifies the traffic
// source (the sending node — what RSS-style policies hash); allowed is
// the redirection-table candidate set, never empty. Implementations
// must return one of the allowed cores.
//
// allowed is shared: it is the I/O APIC's own redirection entry, or
// its one "every core" set, passed to every Route call. A Router must
// not mutate it, and must not retain it past the call.
type Router interface {
	Route(vec Vector, hint int, flow uint64, allowed []int, now units.Time) int
	Name() string
}

// Handler receives an interrupt delivered to core, so one handler can
// serve every local APIC of a node.
type Handler func(core int, vec Vector, now units.Time)

// LocalAPIC is one core's interrupt acceptance unit.
type LocalAPIC struct {
	core     int
	eng      *sim.Engine
	latency  units.Time
	handler  Handler
	masked   bool
	pending  []Vector
	accepted uint64

	// inflight holds accepted vectors awaiting delivery, in acceptance
	// order. The latency is constant, so deliveries fire in that same
	// order and each one takes the ring's front vector.
	inflight vectorRing
	// deliverFn is l.deliver bound once, so Accept allocates no closure.
	deliverFn sim.Event
}

// vectorRing is a FIFO ring buffer of vectors. The capacity is zero or
// a power of two.
type vectorRing struct {
	buf  []Vector
	head int
	n    int
}

//saisvet:allocfree
func (r *vectorRing) push(v Vector) {
	if r.n == len(r.buf) {
		//lint:alloc amortized ring growth: doubles only when the in-flight depth exceeds its peak
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the front vector; the ring must not be empty.
//
//saisvet:allocfree
func (r *vectorRing) pop() Vector {
	v := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// grow doubles the ring (minimum 8 slots), unwrapping it so the front
// vector lands at index 0.
func (r *vectorRing) grow() {
	buf := make([]Vector, max(8, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}

// NewLocalAPICs builds the local APICs of an n-core node, one per core
// in core order, all on one backing array; latency is the
// message-delivery delay before the handler runs.
func NewLocalAPICs(eng *sim.Engine, n int, latency units.Time) []*LocalAPIC {
	if latency < 0 {
		panic("apic: negative delivery latency")
	}
	block := make([]LocalAPIC, n)
	locals := make([]*LocalAPIC, n)
	for i := range block {
		l := &block[i]
		*l = LocalAPIC{core: i, eng: eng, latency: latency}
		l.deliverFn = l.deliver
		locals[i] = l
	}
	return locals
}

// Core returns the core this local APIC belongs to.
func (l *LocalAPIC) Core() int { return l.core }

// Accepted returns the number of interrupts delivered to the handler.
func (l *LocalAPIC) Accepted() uint64 { return l.accepted }

// SetHandler installs the interrupt handler (the kernel's do_IRQ).
func (l *LocalAPIC) SetHandler(h Handler) { l.handler = h }

// Mask stops delivery; incoming vectors queue as pending.
func (l *LocalAPIC) Mask() { l.masked = true }

// Unmask resumes delivery, flushing pending vectors in arrival order.
func (l *LocalAPIC) Unmask() {
	if !l.masked {
		return
	}
	l.masked = false
	// Accept only schedules, so nothing can re-mask mid-flush and the
	// pending buffer is reused for the next masked stretch.
	for _, v := range l.pending {
		l.Accept(v)
	}
	l.pending = l.pending[:0]
}

// Masked reports the mask state.
func (l *LocalAPIC) Masked() bool { return l.masked }

// PendingCount returns the number of vectors queued behind a mask.
func (l *LocalAPIC) PendingCount() int { return len(l.pending) }

// Accept takes an interrupt message destined for this core.
//
//saisvet:allocfree
func (l *LocalAPIC) Accept(vec Vector) {
	if l.masked {
		l.pending = append(l.pending, vec)
		return
	}
	l.inflight.push(vec)
	l.eng.After(l.latency, l.deliverFn)
}

// deliver hands the oldest in-flight vector to the handler.
//
//saisvet:allocfree
func (l *LocalAPIC) deliver(now units.Time) {
	vec := l.inflight.pop()
	l.accepted++
	if l.handler != nil {
		//lint:alloc handler callback invocation: the handler's allocations belong to the kernel model's budget
		l.handler(l.core, vec, now)
	}
}

// RedirEntry is one redirection-table row: the cores allowed to handle
// a vector.
type RedirEntry struct {
	Allowed []int
}

// IOAPICStats counts routing activity.
type IOAPICStats struct {
	Raised    uint64
	Misroutes uint64 // router returned a core outside the allowed set
}

// IOAPIC routes raised vectors to local APICs.
type IOAPIC struct {
	eng    *sim.Engine
	locals []*LocalAPIC
	redir  map[Vector]RedirEntry // nil until the first Program
	all    []int                 // every core, the candidate set of unprogrammed vectors
	router Router
	stats  IOAPICStats
	routed []uint64 // interrupts steered to each core
}

// NewIOAPIC builds an I/O APIC over the given local APICs.
func NewIOAPIC(eng *sim.Engine, locals []*LocalAPIC) *IOAPIC {
	if len(locals) == 0 {
		panic("apic: IOAPIC needs at least one local APIC")
	}
	all := make([]int, len(locals))
	for i := range all {
		all[i] = i
	}
	return &IOAPIC{
		eng: eng, locals: locals,
		all:    all,
		routed: make([]uint64, len(locals)),
	}
}

// SetRouter installs the scheduling policy.
func (io *IOAPIC) SetRouter(r Router) { io.router = r }

// Router returns the installed policy.
func (io *IOAPIC) Router() Router { return io.router }

// Stats returns a copy of the counters.
func (io *IOAPIC) Stats() IOAPICStats { return io.stats }

// RoutedPerCore returns how many interrupts were steered to each core —
// the observable distribution of the installed policy's decisions.
func (io *IOAPIC) RoutedPerCore() []uint64 {
	return append([]uint64(nil), io.routed...)
}

// Program writes a redirection-table entry for vec. An empty allowed
// set means "any core".
func (io *IOAPIC) Program(vec Vector, allowed []int) {
	for _, c := range allowed {
		if c < 0 || c >= len(io.locals) {
			panic(fmt.Sprintf("apic: core %d out of range in redirection entry", c))
		}
	}
	if io.redir == nil {
		io.redir = make(map[Vector]RedirEntry)
	}
	io.redir[vec] = RedirEntry{Allowed: append([]int(nil), allowed...)}
}

// allowedFor resolves the candidate set for a vector.
func (io *IOAPIC) allowedFor(vec Vector) []int {
	if e, ok := io.redir[vec]; ok && len(e.Allowed) > 0 {
		return e.Allowed
	}
	return io.all
}

// RouteFor runs the steering decision for an interrupt without raising
// it: the installed policy picks a core from the vector's redirection
// entry, misroutes fall back to the first allowed core, and the
// per-core routing counter advances. The hybrid workload engine uses it
// to charge aggregated background interrupt load to the core the policy
// would have chosen, without a per-frame Accept.
//
//saisvet:allocfree
func (io *IOAPIC) RouteFor(vec Vector, hint int, flow uint64) int {
	if io.router == nil {
		panic("apic: route with no router installed")
	}
	allowed := io.allowedFor(vec)
	//lint:alloc Router.Route interface call: each policy's state upkeep belongs to its own budget
	dest := io.router.Route(vec, hint, flow, allowed, io.eng.Now())
	ok := false
	for _, c := range allowed {
		if c == dest {
			ok = true
			break
		}
	}
	if !ok {
		io.stats.Misroutes++
		dest = allowed[0]
	}
	io.routed[dest]++
	return dest
}

// Raise routes an interrupt with the given affinity hint (NoHint if the
// packet carried none) and flow identity, and delivers it to the chosen
// core's local APIC. It returns the destination core.
//
//saisvet:allocfree
func (io *IOAPIC) Raise(vec Vector, hint int, flow uint64) int {
	dest := io.RouteFor(vec, hint, flow)
	io.stats.Raised++
	io.locals[dest].Accept(vec)
	return dest
}
