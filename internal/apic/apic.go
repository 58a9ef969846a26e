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
}

// Handler receives an interrupt delivered to core, so one handler can
// serve every local APIC of a node.
type Handler func(core int, now units.Time)

// LocalAPIC is one core's interrupt acceptance unit.
type LocalAPIC struct {
	core    int
	eng     *sim.Engine
	latency units.Time
	handler Handler

	// deliverFn is l.deliver bound once, so Accept allocates no closure.
	deliverFn sim.Event
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

// SetHandler installs the interrupt handler (the kernel's do_IRQ).
func (l *LocalAPIC) SetHandler(h Handler) { l.handler = h }

// Accept takes an interrupt message destined for this core.
//
//saisvet:allocfree
func (l *LocalAPIC) Accept() {
	l.eng.After(l.latency, l.deliverFn)
}

// deliver runs the handler for one accepted interrupt.
//
//saisvet:allocfree
func (l *LocalAPIC) deliver(now units.Time) {
	if l.handler != nil {
		//lint:alloc handler callback invocation: the handler's allocations belong to the kernel model's budget
		l.handler(l.core, now)
	}
}

// RedirEntry is one redirection-table row: the cores allowed to handle
// a vector.
type RedirEntry struct {
	Allowed []int
}

// IOAPIC routes raised vectors to local APICs.
type IOAPIC struct {
	eng    *sim.Engine
	locals []*LocalAPIC
	redir  map[Vector]RedirEntry // nil until the first Program
	all    []int                 // every core, the candidate set of unprogrammed vectors
	router Router
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
	return &IOAPIC{eng: eng, locals: locals, all: all}
}

// SetRouter installs the scheduling policy.
func (io *IOAPIC) SetRouter(r Router) { io.router = r }

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
// entry and misroutes fall back to the first allowed core. The hybrid
// workload engine uses it to charge aggregated background interrupt load
// to the core the policy would have chosen, without a per-frame Accept.
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
		dest = allowed[0]
	}
	return dest
}

// Raise routes an interrupt with the given affinity hint (NoHint if the
// packet carried none) and flow identity, and delivers it to the chosen
// core's local APIC. It returns the destination core.
//
//saisvet:allocfree
func (io *IOAPIC) Raise(vec Vector, hint int, flow uint64) int {
	dest := io.RouteFor(vec, hint, flow)
	io.locals[dest].Accept()
	return dest
}
