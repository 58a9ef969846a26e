// Package irqsched implements the interrupt-scheduling policies the
// paper compares (Figure 1 and §III) — round-robin, dedicated-core,
// irqbalance-style load balancing, and SAIs' source-aware scheduling —
// plus the steering baselines from the related literature: Toeplitz
// RSS, Intel Flow Director (with its packet-reordering pathology),
// A-TFC transport-friendly steering, and client-side straggler-aware
// issue scheduling. Each policy is an apic.Router described by one
// entry of a static policy table indexed by PolicyKind (see
// registry.go); the I/O APIC consults the router per raised interrupt,
// and every consumer — cluster, scenario, saisim policy=NAME, config
// files — resolves policies through that one table. The rest of the
// SAIs chain lives where it runs: the client stamps aff_core_id into
// requests (netsim.Hint), the pfs server echoes it on every reply, and
// the client NIC driver parses it (netsim.ReadHint).
package irqsched

import (
	"fmt"

	"sais/internal/apic"
	"sais/internal/units"
)

// PolicyKind enumerates the implemented policies.
type PolicyKind int

// Policies. The first four are the paper's comparison set; FlowHash is
// an RSS/RFS-style static flow-affinity baseline, Hybrid is the
// paper's future-work integration of source-aware placement with
// load-aware fallback, and the kinds past PolicyHardwareRSS are the
// literature baselines (Wu et al. on Flow Director and A-TFC,
// Microsoft's Toeplitz RSS, Tavakoli et al.'s straggler-aware client).
const (
	PolicyRoundRobin PolicyKind = iota
	PolicyDedicated
	PolicyIrqbalance
	PolicySourceAware
	PolicyFlowHash
	PolicyHybrid
	PolicySocketAware
	// PolicyHardwareRSS steers with one MSI-X queue per core, each
	// queue's vector statically pinned to its core via the redirection
	// table the client programs, so the router never has a choice.
	PolicyHardwareRSS
	// PolicyFlowDirector models Intel Flow Director's per-flow
	// last-transmitting-core table, whose immediate table updates
	// reproduce the Wu et al. packet-reordering pathology.
	PolicyFlowDirector
	// PolicyToeplitz is receive-side scaling with the real Microsoft
	// Toeplitz hash and a 128-entry indirection table.
	PolicyToeplitz
	// PolicyATFC is the A-TFC transport-friendly NIC: affinity updates
	// are staged and applied only at flow-idle boundaries, so an
	// in-flight stream never splits across cores.
	PolicyATFC
	// PolicyStragglerAware is SAIs steering plus Tavakoli et al.'s
	// client-side issue scheduling: the client reorders per-server strip
	// requests so the slowest server receives its request first.
	PolicyStragglerAware
)

// String returns the policy's name.
func (k PolicyKind) String() string {
	if d, ok := Describe(k); ok {
		return d.Name
	}
	return fmt.Sprintf("PolicyKind(%d)", int(k))
}

// ParsePolicy resolves a policy name (as used by command-line tools)
// against the policy table. The error's want-list is derived from the
// table's names, sorted, so new policies can never drift out of it.
func ParsePolicy(name string) (PolicyKind, error) {
	for k, d := range policies {
		if d.Name == name {
			return PolicyKind(k), nil
		}
	}
	return 0, fmt.Errorf("irqsched: unknown policy %q (want %s)", name, nameList())
}

// MarshalText encodes the policy as its name, so config files and JSON
// deltas spell policies the way the command line does.
func (k PolicyKind) MarshalText() ([]byte, error) {
	if _, ok := Describe(k); !ok {
		return nil, &UnknownPolicyError{Kind: k}
	}
	return []byte(k.String()), nil
}

// UnmarshalText decodes a policy name (ParsePolicy).
func (k *PolicyKind) UnmarshalText(text []byte) error {
	p, err := ParsePolicy(string(text))
	if err != nil {
		return err
	}
	*k = p
	return nil
}

// LoadReader exposes the per-core load information irqbalance samples.
// cpu.CPU is adapted to this interface by the client node.
type LoadReader interface {
	NumCores() int
	// CoreBusy returns cumulative busy time of core i since boot.
	CoreBusy(i int) units.Time
	// CoreQueue returns the current number of queued work items on i.
	CoreQueue(i int) int
}

// RoundRobin delivers interrupts to cores in turn — the Linux default
// on the paper's Intel configuration (Figure 1a).
type RoundRobin struct {
	next int
}

// NewRoundRobin returns the policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Route implements apic.Router.
func (r *RoundRobin) Route(_ apic.Vector, _ int, _ uint64, allowed []int, _ units.Time) int {
	c := allowed[r.next%len(allowed)]
	r.next++
	return c
}

// Dedicated delivers every interrupt to one fixed core — the Linux
// lowest-priority default on the paper's AMD configuration (Figure 1b).
type Dedicated struct {
	core int
}

// NewDedicated returns the policy pinned to core.
func NewDedicated(core int) *Dedicated { return &Dedicated{core: core} }

// Route implements apic.Router.
func (d *Dedicated) Route(_ apic.Vector, _ int, _ uint64, allowed []int, _ units.Time) int {
	for _, c := range allowed {
		if c == d.core {
			return c
		}
	}
	return allowed[0]
}

// Irqbalance spreads interrupts over cores by load, re-sampling core
// utilization every Period like the irqbalance daemon. Between samples
// it ranks cores by (sampled busy delta, current queue length) and
// routes each interrupt to the least-loaded allowed core, breaking ties
// round-robin — the "balanced" baseline of the paper's analysis.
type Irqbalance struct {
	loads    LoadReader
	period   units.Time
	lastAt   units.Time
	lastBusy []units.Time
	delta    []units.Time
	rr       int
}

// NewIrqbalance builds the policy over the given load source. period is
// the sampling interval (the daemon's default is 10 s; interrupt-heavy
// deployments run at 10 ms, which is what the experiments use).
func NewIrqbalance(loads LoadReader, period units.Time) *Irqbalance {
	if period <= 0 {
		panic("irqsched: irqbalance period must be positive")
	}
	n := loads.NumCores()
	return &Irqbalance{
		loads:    loads,
		period:   period,
		lastBusy: make([]units.Time, n),
		delta:    make([]units.Time, n),
	}
}

func (b *Irqbalance) resample(now units.Time) {
	for i := range b.delta {
		busy := b.loads.CoreBusy(i)
		b.delta[i] = busy - b.lastBusy[i]
		b.lastBusy[i] = busy
	}
	b.lastAt = now
}

// Route implements apic.Router.
func (b *Irqbalance) Route(_ apic.Vector, _ int, _ uint64, allowed []int, now units.Time) int {
	if now-b.lastAt >= b.period {
		b.resample(now)
	}
	best, bestScore := -1, int64(0)
	for k := 0; k < len(allowed); k++ {
		// Rotate the scan start so equal loads spread round-robin.
		c := allowed[(k+b.rr)%len(allowed)]
		score := int64(b.delta[c]) + int64(b.loads.CoreQueue(c))*int64(units.Microsecond)
		if best == -1 || score < bestScore {
			best, bestScore = c, score
		}
	}
	b.rr++
	return best
}

// SourceAware is the SAIs policy: deliver to the aff_core_id carried in
// the packet; interrupts without a usable hint go round-robin
// (non-PFS traffic still needs a home).
type SourceAware struct {
	fallback RoundRobin
}

// NewSourceAware returns the policy.
func NewSourceAware() *SourceAware { return &SourceAware{} }

// Route implements apic.Router.
func (s *SourceAware) Route(vec apic.Vector, hint int, flow uint64, allowed []int, now units.Time) int {
	if hint != apic.NoHint {
		for _, c := range allowed {
			if c == hint {
				return c
			}
		}
	}
	return s.fallback.Route(vec, hint, flow, allowed, now)
}

// FlowHash is an RSS/receive-flow-steering style baseline: each flow
// (source node) hashes to a fixed core, so one server's strips always
// land on the same core. It preserves per-flow cache locality for the
// protocol state but not for the paper's scenario — the strips of one
// request come from many flows, so the request's data is still spread
// over the cores and must migrate to the consumer.
type FlowHash struct{}

// NewFlowHash returns the policy.
func NewFlowHash() *FlowHash { return &FlowHash{} }

// Route implements apic.Router.
func (f *FlowHash) Route(_ apic.Vector, _ int, flow uint64, allowed []int, _ units.Time) int {
	x := flow
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return allowed[x%uint64(len(allowed))]
}

// Hybrid is the future-work integration sketched in the paper's §VIII:
// follow the source-aware hint while the target core is responsive, but
// fall back to the least-loaded core when the hinted core's queue
// exceeds a threshold — trading a migration for not stalling behind a
// saturated core.
type Hybrid struct {
	loads     LoadReader
	balance   *Irqbalance
	threshold int
}

// NewHybrid builds the policy. threshold is the hinted core's queue
// depth beyond which the interrupt is diverted (≥ 1).
func NewHybrid(loads LoadReader, period units.Time, threshold int) *Hybrid {
	if threshold < 1 {
		panic("irqsched: hybrid threshold must be >= 1")
	}
	return &Hybrid{
		loads:     loads,
		balance:   NewIrqbalance(loads, period),
		threshold: threshold,
	}
}

// Route implements apic.Router.
func (h *Hybrid) Route(vec apic.Vector, hint int, flow uint64, allowed []int, now units.Time) int {
	if hint != apic.NoHint {
		for _, c := range allowed {
			if c == hint {
				if h.loads.CoreQueue(c) < h.threshold {
					return c
				}
				break
			}
		}
	}
	return h.balance.Route(vec, hint, flow, allowed, now)
}

// SocketAware is the hint-precision ablation: instead of the exact
// aff_core_id, the scheduler honours only the hinted core's *socket*
// (as a 2-3 bit hint could encode), delivering to the least-queued
// core there. Strips stay on the consumer's socket — migrations remain
// but become the cheap intra-socket kind.
type SocketAware struct {
	loads      LoadReader
	socketSize int
	fallback   RoundRobin
	rr         int
}

// NewSocketAware builds the policy. socketSize is cores per socket;
// interrupts without a hint go round-robin.
func NewSocketAware(loads LoadReader, socketSize int) *SocketAware {
	if socketSize < 1 {
		panic("irqsched: socket size must be >= 1")
	}
	return &SocketAware{loads: loads, socketSize: socketSize}
}

// Route implements apic.Router.
func (s *SocketAware) Route(vec apic.Vector, hint int, flow uint64, allowed []int, now units.Time) int {
	if hint != apic.NoHint {
		socket := hint / s.socketSize
		best, bestQ := -1, 0
		// Rotate the scan start like Irqbalance.rr: with equal queue
		// depths (always, when loads is nil) a fixed scan order would
		// pin every intra-socket interrupt to the lowest core id.
		n := len(allowed)
		for k := 0; k < n; k++ {
			c := allowed[(k+s.rr)%n]
			if c/s.socketSize != socket {
				continue
			}
			q := 0
			if s.loads != nil {
				q = s.loads.CoreQueue(c)
			}
			if best == -1 || q < bestQ {
				best, bestQ = c, q
			}
		}
		if best >= 0 {
			s.rr++
			return best
		}
	}
	return s.fallback.Route(vec, hint, flow, allowed, now)
}

// Options collects the policy constructor inputs; zero values are valid
// for policies that do not use them — every table constructor
// substitutes a safe default, so New is total over parseable kinds.
type Options struct {
	Loads      LoadReader
	Period     units.Time // irqbalance/hybrid sampling period (default 10 ms)
	SocketSize int        // sais-socket granularity (default 4)
	Cores      int        // toeplitz's core count (default 1)
}

// New constructs a policy by kind through the policy table. Every kind
// a successful ParsePolicy can return constructs a usable router; a
// kind outside the table yields *UnknownPolicyError, never a panic.
func New(kind PolicyKind, opts Options) (apic.Router, error) {
	d, ok := Describe(kind)
	if !ok {
		return nil, &UnknownPolicyError{Kind: kind}
	}
	return d.New(opts)
}
