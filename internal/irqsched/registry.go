package irqsched

import (
	"fmt"
	"sort"
	"strings"

	"sais/internal/apic"
	"sais/internal/units"
)

// Descriptor is a policy's entry in the policy table: the parseable
// name, the constructor, and the traits consumers need to wire the
// datapath without kind-specific switches.
type Descriptor struct {
	// Name is the identifier accepted by ParsePolicy and printed by
	// PolicyKind.String.
	Name string
	// New builds the router from Options. Constructors are total: every
	// zero-valued Options field is replaced by a safe default.
	New func(Options) (apic.Router, error)
	// UsesHints means the client stamps each request with the issuing
	// core's aff_core_id and bounds its core count by netsim.MaxCores.
	UsesHints bool
	// MSIX means the client gives the NIC one receive queue per core
	// and pins queue q's vector to core q in the redirection table.
	MSIX bool
	// ReorderIssue means the client reorders strip issue order by
	// observed per-server latency (straggler-aware scheduling).
	ReorderIssue bool
}

// TxObserver is implemented by routers that sample the transmit path —
// Flow Director's last-transmitting-core table and A-TFC's staged
// affinity. The client calls it from the send side of the datapath.
type TxObserver interface {
	NoteTransmit(flow uint64, core int)
}

// FlowIdleObserver is implemented by routers that defer affinity
// updates to flow-idle boundaries (A-TFC). The client calls it when a
// flow's outstanding strips drain to zero.
type FlowIdleObserver interface {
	NoteFlowIdle(flow uint64)
}

// CounterReporter lets a policy export self-describing counters into
// the run Result (Result.PolicyStats). Keys should be short and
// prefixed with the policy name (e.g. "fd_evictions").
type CounterReporter interface {
	Counters() map[string]uint64
}

// Describe returns the policy table's entry for kind.
func Describe(kind PolicyKind) (Descriptor, bool) {
	if kind < 0 || int(kind) >= len(policies) {
		return Descriptor{}, false
	}
	return policies[kind], true
}

// Names returns every policy name, sorted.
func Names() []string {
	ns := make([]string, len(policies))
	for i, d := range policies {
		ns[i] = d.Name
	}
	sort.Strings(ns)
	return ns
}

func nameList() string { return strings.Join(Names(), "|") }

// UnknownPolicyError reports a PolicyKind outside the policy table —
// only reachable with a kind that ParsePolicy cannot produce.
type UnknownPolicyError struct {
	Kind PolicyKind
}

func (e *UnknownPolicyError) Error() string {
	return fmt.Sprintf("irqsched: unknown policy kind %d (known: %s)", int(e.Kind), nameList())
}

// zeroLoads is the nil-LoadReader default: a flat, idle machine. The
// core count is an upper bound — routers index it only with core ids
// from their allowed set, so oversizing is harmless.
type zeroLoads struct{ n int }

func (z zeroLoads) NumCores() int           { return z.n }
func (z zeroLoads) CoreBusy(int) units.Time { return 0 }
func (z zeroLoads) CoreQueue(int) int       { return 0 }

func loadsOr(opts Options) LoadReader {
	if opts.Loads != nil {
		return opts.Loads
	}
	return zeroLoads{n: 1024}
}

func periodOr(opts Options) units.Time {
	if opts.Period > 0 {
		return opts.Period
	}
	return 10 * units.Millisecond
}

// hybridQueue is hybrid's divert threshold and flowTable Flow
// Director's table capacity.
const (
	hybridQueue = 16
	flowTable   = 1024
)

// policies is the policy table, indexed by PolicyKind: ParsePolicy,
// String, Describe and New all resolve a policy through it.
var policies = [...]Descriptor{
	PolicyRoundRobin: {
		Name: "roundrobin",
		New:  func(Options) (apic.Router, error) { return NewRoundRobin(), nil },
	},
	PolicyDedicated: {
		Name: "dedicated",
		New:  func(Options) (apic.Router, error) { return NewDedicated(0), nil },
	},
	PolicyIrqbalance: {
		Name: "irqbalance",
		New: func(o Options) (apic.Router, error) {
			return NewIrqbalance(loadsOr(o), periodOr(o)), nil
		},
	},
	PolicySourceAware: {
		Name: "sais", UsesHints: true,
		New: func(Options) (apic.Router, error) { return NewSourceAware(), nil },
	},
	PolicyFlowHash: {
		Name: "flowhash",
		New:  func(Options) (apic.Router, error) { return NewFlowHash(), nil },
	},
	PolicyHybrid: {
		Name: "hybrid", UsesHints: true,
		New: func(o Options) (apic.Router, error) {
			return NewHybrid(loadsOr(o), periodOr(o), hybridQueue), nil
		},
	},
	PolicySocketAware: {
		Name: "sais-socket", UsesHints: true,
		New: func(o Options) (apic.Router, error) {
			ss := o.SocketSize
			if ss < 1 {
				ss = 4
			}
			return NewSocketAware(o.Loads, ss), nil
		},
	},
	PolicyHardwareRSS: {
		Name: "rss", MSIX: true,
		New: func(Options) (apic.Router, error) { return NewRoundRobin(), nil },
	},
	PolicyFlowDirector: {
		Name: "flowdirector",
		New:  func(Options) (apic.Router, error) { return NewFlowDirector(flowTable), nil },
	},
	PolicyToeplitz: {
		Name: "toeplitz",
		New:  func(o Options) (apic.Router, error) { return NewToeplitz(o.Cores), nil },
	},
	PolicyATFC: {
		Name: "atfc",
		New:  func(Options) (apic.Router, error) { return NewATFC(), nil },
	},
	PolicyStragglerAware: {
		Name: "straggler", UsesHints: true, ReorderIssue: true,
		New: func(Options) (apic.Router, error) { return NewSourceAware(), nil },
	},
}
