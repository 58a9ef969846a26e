// Package faults is the unified, deterministic fault-injection
// subsystem of the SAIs reproduction. A Plan is a declarative,
// serializable chaos specification — per-link loss and corruption
// probabilities, per-server stall distributions, and a timeline of
// scheduled events (server crashes and revivals, link degradation,
// interrupt storms). An Injector arms a Plan against a built cluster by
// installing the primitives the simulator already exposes
// (Fabric.SetLoss/SetCorruption, pfs.Server.SetDown/SetStall) and
// registering sim.Engine events for the timeline, so identical
// (plan, seed) pairs replay byte-identically.
//
// The package deliberately knows nothing about the cluster package:
// it operates on the fabric, the servers, and the engine directly, and
// cluster wires it in. Every random draw comes from a labelled Split of
// the run's seeded rng.Source, never from global state.
package faults

import (
	"fmt"
	"sort"

	"sais/internal/units"
)

// Kind names one timeline event type. Kinds are strings so plan files
// stay readable and diffable.
type Kind string

// The timeline event vocabulary.
const (
	// KindCrash takes Server down at At: the node drops every frame it
	// receives until revived.
	KindCrash Kind = "crash"
	// KindRevive brings Server back at At.
	KindRevive Kind = "revive"
	// KindDegradeLink scales the fabric's forwarding latency by Factor
	// from At on (Factor 1 restores the healthy switch).
	KindDegradeLink Kind = "degrade-link"
	// KindStormStart begins an interrupt storm at At: a ghost node
	// sprays junk frames of Payload bytes at the target client (Client
	// index, -1 = every client) every Period until the matching
	// storm-stop. Each frame costs the victim an interrupt plus stray
	// protocol processing — the classic receive-livelock ingredient.
	KindStormStart Kind = "storm-start"
	// KindStormStop ends the most recently started storm.
	KindStormStop Kind = "storm-stop"
)

// TimelineEvent is one scheduled fault. Fields beyond At/Kind are
// interpreted per kind; unused fields must be zero.
type TimelineEvent struct {
	At   units.Time
	Kind Kind
	// Server is the target server index for crash/revive.
	Server int
	// Client is the target client index for storm-start; -1 storms
	// every client.
	Client int
	// Factor scales the fabric latency for degrade-link; must be > 0.
	Factor float64
	// Period is the inter-frame gap of a storm; must be > 0.
	Period units.Time
	// Payload is the junk-frame payload of a storm (0 = header-only
	// frames, which still cost an interrupt each).
	Payload units.Bytes
}

// Stall describes a per-server service-delay distribution: a fraction
// Rate of requests is delayed by a truncated-normal draw around Mean
// with standard deviation Jitter (Jitter 0 = the fixed Mean).
type Stall struct {
	// Server is the target server index; -1 applies to every server.
	Server int
	Rate   float64
	Mean   units.Time
	Jitter units.Time
}

// Plan is a complete, serializable fault specification. The zero Plan
// injects nothing.
type Plan struct {
	// Loss is the per-frame drop probability on the fabric, [0, 1).
	Loss float64
	// Corrupt is the per-frame header-corruption probability, [0, 1).
	// Corrupted frames reach the receiver but fail IPv4 validation.
	Corrupt float64
	// Stalls are per-server service-delay distributions.
	Stalls []Stall
	// Timeline is the scheduled fault sequence. It is normalized to
	// non-decreasing At order (stably) before validation and arming.
	Timeline []TimelineEvent
}

// Clone returns a deep copy of p (nil-safe).
func (p *Plan) Clone() *Plan {
	if p == nil {
		return nil
	}
	cp := &Plan{Loss: p.Loss, Corrupt: p.Corrupt}
	cp.Stalls = append([]Stall(nil), p.Stalls...)
	cp.Timeline = append([]TimelineEvent(nil), p.Timeline...)
	return cp
}

// Empty reports whether the plan injects nothing (nil-safe).
func (p *Plan) Empty() bool {
	return p == nil || (p.Loss == 0 && p.Corrupt == 0 && len(p.Stalls) == 0 && len(p.Timeline) == 0)
}

// Merge overlays extra onto base, returning a new plan (nil-safe on
// both sides): scalar rates take the larger value, stall distributions
// and timeline events concatenate. The scenario engine uses it to
// combine a hand-written base plan with a generated chaos timeline;
// the merged plan still has to pass Validate when it meets a cluster.
func Merge(base, extra *Plan) *Plan {
	if extra.Empty() {
		return base.Clone()
	}
	if base.Empty() {
		return extra.Clone()
	}
	m := base.Clone()
	if extra.Loss > m.Loss {
		m.Loss = extra.Loss
	}
	if extra.Corrupt > m.Corrupt {
		m.Corrupt = extra.Corrupt
	}
	m.Stalls = append(m.Stalls, extra.Stalls...)
	m.Timeline = append(m.Timeline, extra.Timeline...)
	return m
}

// sortedTimeline returns the timeline stably ordered by At.
func (p *Plan) sortedTimeline() []TimelineEvent {
	tl := append([]TimelineEvent(nil), p.Timeline...)
	sort.SliceStable(tl, func(i, j int) bool { return tl[i].At < tl[j].At })
	return tl
}

// Validate checks the plan against a cluster of the given shape. It is
// nil-safe: a nil plan is valid.
func (p *Plan) Validate(servers, clients int) error {
	if p == nil {
		return nil
	}
	if p.Loss < 0 || p.Loss >= 1 {
		return fmt.Errorf("faults: loss %v outside [0,1)", p.Loss)
	}
	if p.Corrupt < 0 || p.Corrupt >= 1 {
		return fmt.Errorf("faults: corrupt %v outside [0,1)", p.Corrupt)
	}
	stalled := make(map[int]bool)
	for i, s := range p.Stalls {
		if s.Server < -1 || s.Server >= servers {
			return fmt.Errorf("faults: stall %d targets server %d of %d", i, s.Server, servers)
		}
		if s.Rate < 0 || s.Rate > 1 {
			return fmt.Errorf("faults: stall %d rate %v outside [0,1]", i, s.Rate)
		}
		if s.Mean < 0 || s.Jitter < 0 {
			return fmt.Errorf("faults: stall %d has negative delay", i)
		}
		lo, hi := s.Server, s.Server
		if s.Server == -1 {
			lo, hi = 0, servers-1
		}
		for srv := lo; srv <= hi; srv++ {
			if stalled[srv] {
				return fmt.Errorf("faults: stall %d re-targets server %d", i, srv)
			}
			stalled[srv] = true
		}
	}
	stormOpen := false
	for i, ev := range p.sortedTimeline() {
		if ev.At < 0 {
			return fmt.Errorf("faults: event %d at negative time %v", i, ev.At)
		}
		switch ev.Kind {
		case KindCrash, KindRevive:
			if ev.Server < 0 || ev.Server >= servers {
				return fmt.Errorf("faults: %s event %d targets server %d of %d", ev.Kind, i, ev.Server, servers)
			}
		case KindDegradeLink:
			// Factors below 1 would shrink the fabric latency under the
			// sharded executor's lookahead; the rule is uniform — shards=1
			// used to accept them silently and diverge from sharded runs of
			// the same plan. The upper bound keeps the scaled latency far
			// from int64 overflow for any sane fabric.
			if ev.Factor < 1 || ev.Factor > 1e6 {
				return fmt.Errorf("faults: degrade-link event %d factor %v outside [1, 1e6] (a degraded link is slower, never faster)", i, ev.Factor)
			}
		case KindStormStart:
			if stormOpen {
				return fmt.Errorf("faults: storm-start event %d while a storm is active", i)
			}
			if ev.Period <= 0 {
				return fmt.Errorf("faults: storm-start event %d period %v must be positive", i, ev.Period)
			}
			if ev.Payload < 0 {
				return fmt.Errorf("faults: storm-start event %d negative payload", i)
			}
			if ev.Client < -1 || ev.Client >= clients {
				return fmt.Errorf("faults: storm-start event %d targets client %d of %d", i, ev.Client, clients)
			}
			stormOpen = true
		case KindStormStop:
			if !stormOpen {
				return fmt.Errorf("faults: storm-stop event %d without an active storm", i)
			}
			stormOpen = false
		default:
			return fmt.Errorf("faults: event %d has unknown kind %q", i, ev.Kind)
		}
	}
	if stormOpen {
		// An unterminated storm would tick forever and the engine would
		// never drain; every storm must be bounded.
		return fmt.Errorf("faults: storm-start without a matching storm-stop")
	}
	return nil
}
