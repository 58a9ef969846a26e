// Package flowsim is the analytic half of the hybrid-fidelity workload
// engine (DESIGN.md §14): millions of background users modeled as
// arrival-rate flow processes feeding fluid queues, instead of as
// simulated client nodes exchanging frames.
//
// A TenantShare describes one slice of the background population — its
// share of the users, the mean per-user offered rate, the rate curve
// shape (constant, diurnal, burst), and where its traffic lands (spread
// over the servers, concentrated on a hot subset, or colocated on the
// foreground clients' NICs). The cluster wiring resolves a tenant mix
// into per-station Flows and integrates each Station's fluid state
// forward in fixed rate-update steps.
//
// Determinism and layout invariance: a Station's trajectory is a pure
// function of simulated time. AdvanceTo only completes whole steps, so
// the state a query observes depends on the query's timestamp, never on
// how many queries happened in between — the property that keeps
// sharded runs bit-identical to single-engine runs (the query times
// themselves are layout-invariant, per DESIGN.md §12). All arithmetic
// is straight-line float64 with a fixed iteration order.
package flowsim

import (
	"errors"
	"fmt"
	"math"

	"sais/internal/units"
)

// Typed validation errors, matching the degrade-link<1 precedent:
// invalid hybrid configs are rejected uniformly — the same config is
// rejected at every shard count, so a shards=1 run can never silently
// accept what a sharded run of the same config would refuse.
var (
	// ErrNoTenantMix: BackgroundUsers > 0 with no TenantMix. The mix is
	// the contract that makes the per-shard tenant split explicit; an
	// implicit default would have to be invented at run time, so it is
	// required at every shard count, not just sharded ones.
	ErrNoTenantMix = errors.New("flowsim: background users need an explicit tenant mix")
	// ErrNegativeRate: a tenant's per-user rate is negative.
	ErrNegativeRate = errors.New("flowsim: negative per-user rate")
	// ErrBadShare: a tenant share outside [0, 1].
	ErrBadShare = errors.New("flowsim: tenant share outside [0, 1]")
	// ErrShareSum: the tenant shares do not sum to 1.
	ErrShareSum = errors.New("flowsim: tenant shares must sum to 1")
	// ErrBadShape: unknown rate-curve shape name.
	ErrBadShape = errors.New("flowsim: unknown rate shape")
	// ErrBadPeriod: a shaped (diurnal/burst) tenant without a positive
	// period.
	ErrBadPeriod = errors.New("flowsim: shaped tenant needs a positive period")
	// ErrBadAmplitude: diurnal amplitude outside [0, 1] (an amplitude
	// above 1 would swing the arrival rate negative).
	ErrBadAmplitude = errors.New("flowsim: diurnal amplitude outside [0, 1]")
	// ErrBadDuty: burst duty cycle outside (0, 1].
	ErrBadDuty = errors.New("flowsim: burst duty cycle outside (0, 1]")
	// ErrBadPhase: phase offset outside [0, 1).
	ErrBadPhase = errors.New("flowsim: phase outside [0, 1)")
	// ErrBadColocate: colocated fraction outside [0, 1].
	ErrBadColocate = errors.New("flowsim: colocate fraction outside [0, 1]")
	// ErrBadHotServers: negative hot-server count.
	ErrBadHotServers = errors.New("flowsim: negative hot-server count")
)

// shareSumEps is the tolerance on the tenant shares summing to 1 —
// generous enough for hand-written decimal mixes (0.3 + 0.3 + 0.4),
// tight enough to catch a forgotten tenant.
const shareSumEps = 1e-6

// Shape selects a tenant's rate curve. All shapes are mean-preserving:
// averaged over whole periods, the tenant offers Share × Users ×
// PerUserRate bytes per second regardless of shape.
type Shape int

const (
	// ShapeConstant offers the mean rate at every instant.
	ShapeConstant Shape = iota
	// ShapeDiurnal modulates the mean sinusoidally: rate(t) = mean ×
	// (1 + Amplitude·sin(2π(t/Period + Phase))).
	ShapeDiurnal
	// ShapeBurst is a square wave: the tenant offers mean/Duty during
	// the first Duty fraction of each period and nothing otherwise.
	ShapeBurst
)

// ParseShape maps a TenantShare.Shape string onto the enum. The empty
// string is constant.
func ParseShape(s string) (Shape, error) {
	switch s {
	case "", "constant":
		return ShapeConstant, nil
	case "diurnal":
		return ShapeDiurnal, nil
	case "burst":
		return ShapeBurst, nil
	default:
		return ShapeConstant, fmt.Errorf("%w: %q (want constant, diurnal, or burst)", ErrBadShape, s)
	}
}

// TenantShare is one serializable slice of the background population
// (cluster.Config.TenantMix). Shares must sum to 1 over the mix.
type TenantShare struct {
	// Name labels the tenant in reports.
	Name string
	// Share is this tenant's fraction of the background users.
	Share float64
	// PerUserRate is the mean offered load per user in bytes/second.
	PerUserRate units.Rate
	// Shape selects the rate curve: "", "constant", "diurnal", "burst".
	Shape string `json:",omitempty"`
	// Period is the shape's cycle length (required for diurnal/burst).
	Period units.Time `json:",omitempty"`
	// Amplitude is the diurnal swing in [0, 1].
	Amplitude float64 `json:",omitempty"`
	// Duty is the burst on-fraction in (0, 1].
	Duty float64 `json:",omitempty"`
	// Phase shifts the cycle by this fraction of a period, in [0, 1).
	Phase float64 `json:",omitempty"`
	// Colocate is the fraction of this tenant's traffic that lands on
	// the foreground clients' NICs and cores (noisy neighbors sharing
	// the measured nodes); the rest loads the servers.
	Colocate float64 `json:",omitempty"`
	// HotServers concentrates the tenant's server-side load on the
	// first HotServers servers instead of spreading it uniformly
	// (0 = uniform). Clamped to the server count at resolution time.
	HotServers int `json:",omitempty"`
}

// Validate checks one tenant in isolation. Mix-wide rules (share sum)
// live in ValidateMix.
func (t TenantShare) Validate() error {
	if t.Share < 0 || t.Share > 1 {
		return fmt.Errorf("%w: tenant %q share %v", ErrBadShare, t.Name, t.Share)
	}
	if t.PerUserRate < 0 {
		return fmt.Errorf("%w: tenant %q rate %v", ErrNegativeRate, t.Name, t.PerUserRate)
	}
	shape, err := ParseShape(t.Shape)
	if err != nil {
		return fmt.Errorf("tenant %q: %w", t.Name, err)
	}
	if shape != ShapeConstant && t.Period <= 0 {
		return fmt.Errorf("%w: tenant %q shape %q", ErrBadPeriod, t.Name, t.Shape)
	}
	if shape == ShapeDiurnal && (t.Amplitude < 0 || t.Amplitude > 1) {
		return fmt.Errorf("%w: tenant %q amplitude %v", ErrBadAmplitude, t.Name, t.Amplitude)
	}
	if shape == ShapeBurst && (t.Duty <= 0 || t.Duty > 1) {
		return fmt.Errorf("%w: tenant %q duty %v", ErrBadDuty, t.Name, t.Duty)
	}
	if t.Phase < 0 || t.Phase >= 1 {
		return fmt.Errorf("%w: tenant %q phase %v", ErrBadPhase, t.Name, t.Phase)
	}
	if t.Colocate < 0 || t.Colocate > 1 {
		return fmt.Errorf("%w: tenant %q colocate %v", ErrBadColocate, t.Name, t.Colocate)
	}
	if t.HotServers < 0 {
		return fmt.Errorf("%w: tenant %q hot servers %d", ErrBadHotServers, t.Name, t.HotServers)
	}
	return nil
}

// ValidateMix checks a whole tenant mix: every tenant individually,
// plus the shares summing to 1. An empty mix is ErrNoTenantMix — the
// caller invokes ValidateMix exactly when background users were
// requested.
func ValidateMix(mix []TenantShare) error {
	if len(mix) == 0 {
		return ErrNoTenantMix
	}
	sum := 0.0
	for _, t := range mix {
		if err := t.Validate(); err != nil {
			return err
		}
		sum += t.Share
	}
	if math.Abs(sum-1) > shareSumEps {
		return fmt.Errorf("%w: got %v", ErrShareSum, sum)
	}
	return nil
}

// MixMeanRate returns the aggregate mean offered rate of the mix at the
// given population, in bytes/second — the invariant checker's test for
// "this hybrid run was supposed to offer load".
func MixMeanRate(mix []TenantShare, users int) float64 {
	total := 0.0
	for _, t := range mix {
		total += float64(users) * t.Share * float64(t.PerUserRate)
	}
	return total
}

// Flow is one tenant's resolved arrival process at one station: the
// mean rate this station sees plus the shape parameters. A zero-Rate
// flow is legal (the tenant does not load this station) and keeps the
// flow index aligned with the tenant mix.
type Flow struct {
	Rate      float64 // mean arrival rate at this station, bytes/second
	Shape     Shape
	Period    units.Time
	Amplitude float64
	Duty      float64
	Phase     float64
}

// RateAt evaluates the arrival rate at simulated time t, in
// bytes/second. Pure and branch-stable: the trajectory every station
// integrates is a closed-form function of time.
//
//saisvet:allocfree
func (f Flow) RateAt(t units.Time) float64 {
	switch f.Shape {
	case ShapeDiurnal:
		pos := cyclePos(t, f.Period, f.Phase)
		return f.Rate * (1 + f.Amplitude*math.Sin(2*math.Pi*pos))
	case ShapeBurst:
		if cyclePos(t, f.Period, f.Phase) < f.Duty {
			return f.Rate / f.Duty
		}
		return 0
	default:
		return f.Rate
	}
}

// cyclePos returns the position inside the current cycle as a fraction
// in [0, 1).
//
//saisvet:allocfree
func cyclePos(t, period units.Time, phase float64) float64 {
	pos := float64(t)/float64(period) + phase
	return pos - math.Floor(pos)
}

// flowFor resolves the shape fields shared by every station the tenant
// touches; rate is filled by the caller.
func flowFor(t TenantShare, rate float64) Flow {
	shape, err := ParseShape(t.Shape)
	if err != nil {
		// Resolution runs after validation; an unknown shape here is a
		// wiring bug, not bad input.
		panic(err)
	}
	return Flow{
		Rate:      rate,
		Shape:     shape,
		Period:    t.Period,
		Amplitude: t.Amplitude,
		Duty:      t.Duty,
		Phase:     t.Phase,
	}
}

// ServerFlows resolves the mix into the per-tenant arrival processes at
// server index server of servers total: the tenant's server-directed
// fraction (1 − Colocate), spread uniformly over either all servers or
// its HotServers prefix. The returned slice is index-aligned with mix.
func ServerFlows(mix []TenantShare, users, server, servers int) []Flow {
	flows := make([]Flow, len(mix))
	for k, t := range mix {
		aggregate := float64(users) * t.Share * float64(t.PerUserRate) * (1 - t.Colocate)
		targets := servers
		if t.HotServers > 0 && t.HotServers < servers {
			targets = t.HotServers
		}
		rate := 0.0
		if server < targets && targets > 0 {
			rate = aggregate / float64(targets)
		}
		flows[k] = flowFor(t, rate)
	}
	return flows
}

// ClientFlows resolves the mix into the per-tenant colocated arrival
// processes at one foreground client of clients total: the tenant's
// Colocate fraction, spread uniformly over the foreground cohort. The
// returned slice is index-aligned with mix.
func ClientFlows(mix []TenantShare, users, clients int) []Flow {
	flows := make([]Flow, len(mix))
	for k, t := range mix {
		rate := 0.0
		if clients > 0 {
			rate = float64(users) * t.Share * float64(t.PerUserRate) * t.Colocate / float64(clients)
		}
		flows[k] = flowFor(t, rate)
	}
	return flows
}

// HasRate reports whether any flow in the slice carries load — the
// cluster wiring skips stations that would integrate zero forever.
func HasRate(flows []Flow) bool {
	for _, f := range flows {
		if f.Rate > 0 {
			return true
		}
	}
	return false
}

// maxLoad caps the utilization Slowdown converts, bounding the
// foreground service-time multiplier at 16× — a saturated fluid queue
// must slow the foreground badly, not wedge the run.
const maxLoad = 0.9375

// Slowdown converts a background utilization u into the foreground
// service-time multiplier of an M/G/1-style shared resource, 1/(1−u),
// clamped to [1, 16]. The clamp is the fidelity boundary of the fluid
// model: past ~94% background load the analytic queue would predict
// unbounded delay, which the full-fidelity path would resolve by
// backpressure the one-way coupling cannot express.
//
//saisvet:allocfree
func Slowdown(u float64) float64 {
	if u <= 0 {
		return 1
	}
	if u > maxLoad {
		u = maxLoad
	}
	return 1 / (1 - u)
}

// Station is one fluid queue: per-tenant arrival processes draining
// into a shared service capacity (a server NIC, a foreground client's
// ingress). State advances in fixed whole steps of the rate-update
// period; each step integrates arrivals at the step-start rate and
// serves up to capacity×step bytes, splitting service over the flows in
// proportion to their demand (fluid processor sharing).
type Station struct {
	capacity float64 // service capacity, bytes/second
	step     units.Time
	flows    []Flow

	lastT      units.Time
	q          []float64 // per-flow backlog, bytes
	lastServed []float64 // per-flow bytes served in the last completed step
	backlog    float64   // Σ q
	offered    float64   // cumulative arrivals, bytes
	served     float64   // cumulative service, bytes
	load       float64   // utilization over the last completed step
}

// NewStation builds a station. capacity and step must be positive.
func NewStation(capacity units.Rate, step units.Time, flows []Flow) *Station {
	if capacity <= 0 {
		panic("flowsim: non-positive station capacity")
	}
	if step <= 0 {
		panic("flowsim: non-positive rate-update step")
	}
	return &Station{
		capacity:   float64(capacity),
		step:       step,
		flows:      flows,
		q:          make([]float64, len(flows)),
		lastServed: make([]float64, len(flows)),
	}
}

// AdvanceTo integrates the fluid state forward in whole steps, up to
// the last step boundary at or before now. The sub-step remainder stays
// pending, so the observed state is a pure function of now — not of how
// many times, or from which event, the station was queried. now values
// in the past are a no-op (queries arrive in whatever order the event
// pattern produces; the trajectory only moves forward).
//
//saisvet:allocfree
func (st *Station) AdvanceTo(now units.Time) {
	for st.lastT+st.step <= now {
		st.stepOnce(st.step)
	}
}

// Finalize integrates through now including the final partial step —
// called once at collection time so offered/served accounting covers
// the exact makespan. The station must not be advanced afterwards.
//
//saisvet:allocfree
func (st *Station) Finalize(now units.Time) {
	st.AdvanceTo(now)
	if now > st.lastT {
		st.stepOnce(now - st.lastT)
	}
}

// stepOnce integrates one interval of length dt starting at lastT.
//
//saisvet:allocfree
func (st *Station) stepOnce(dt units.Time) {
	sec := float64(dt) * 1e-9 // interval length in seconds
	capBytes := st.capacity * sec
	demand := 0.0
	for i := range st.flows {
		a := st.flows[i].RateAt(st.lastT) * sec
		st.offered += a
		st.q[i] += a
		demand += st.q[i]
	}
	if demand <= capBytes {
		// Underload: everything pending is served within the step.
		for i := range st.q {
			st.lastServed[i] = st.q[i]
			st.q[i] = 0
		}
		st.served += demand
		st.backlog = 0
		st.load = 0
		if capBytes > 0 {
			st.load = demand / capBytes
		}
	} else {
		// Overload: capacity is shared over the flows in proportion to
		// their demand, the remainder queues.
		frac := capBytes / demand
		for i := range st.q {
			s := st.q[i] * frac
			st.lastServed[i] = s
			st.q[i] -= s
		}
		st.served += capBytes
		st.backlog = demand - capBytes
		st.load = 1
	}
	st.lastT += dt
}

// Load returns the background utilization over the last completed step:
// the fraction of the station's capacity the fluid consumed, pinned to
// 1 while a backlog persists. Feed it through Slowdown to scale
// foreground service times.
//
//saisvet:allocfree
func (st *Station) Load() float64 { return st.load }

// ServedLastStep returns the bytes served for flow i during the last
// completed step — the per-tenant quantum the client wiring converts
// into aggregated interrupt pressure.
//
//saisvet:allocfree
func (st *Station) ServedLastStep(i int) float64 { return st.lastServed[i] }

// OfferedBytes returns cumulative arrivals, truncated to whole bytes.
func (st *Station) OfferedBytes() units.Bytes { return units.Bytes(st.offered) }

// ServedBytes returns cumulative service, truncated to whole bytes.
func (st *Station) ServedBytes() units.Bytes { return units.Bytes(st.served) }

// BacklogBytes returns the fluid still queued, truncated to whole
// bytes.
func (st *Station) BacklogBytes() units.Bytes { return units.Bytes(st.backlog) }
