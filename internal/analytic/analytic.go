// Package analytic implements the quantitative model of the paper's
// §III: closed-form bounds on the completion time of balanced versus
// source-aware interrupt scheduling in terms of the strip-processing
// cost P, the strip-migration cost M, the network-and-server time TR,
// and the cluster shape (NC client cores, NS servers, NR requests, NP
// programs). The simulator is cross-checked against these bounds in
// tests; cmd/analytic prints them.
package analytic

import (
	"fmt"

	"sais/internal/units"
)

// Params are the model inputs. The paper assumes NS = α × NC for a
// positive integer α, and M >> P.
type Params struct {
	P  units.Time // processing time of one data strip
	M  units.Time // migration time of one strip between cores
	TR units.Time // network + server time, policy-independent
	NC int        // client cores
	NS int        // I/O server nodes
	NR int        // I/O requests issued by the client
	NP int        // concurrent programs on the client
}

// Validate checks the model's structural assumptions.
func (p Params) Validate() error {
	switch {
	case p.P <= 0 || p.M <= 0:
		return fmt.Errorf("analytic: P and M must be positive")
	case p.TR < 0:
		return fmt.Errorf("analytic: negative TR")
	case p.NC <= 0 || p.NS <= 0:
		return fmt.Errorf("analytic: NC and NS must be positive")
	case p.NR <= 0:
		return fmt.Errorf("analytic: NR must be positive")
	case p.NP < 0:
		return fmt.Errorf("analytic: negative NP")
	case p.NS%p.NC != 0:
		return fmt.Errorf("analytic: the model assumes NS = α×NC; %d %% %d != 0", p.NS, p.NC)
	}
	return nil
}

// Alpha returns α = NS / NC.
func (p Params) Alpha() int { return p.NS / p.NC }

// MDominatesP reports whether the paper's M >> P assumption plausibly
// holds (at least one decimal order of magnitude).
func (p Params) MDominatesP() bool { return p.M >= 10*p.P }

// TBalancedLower is inequality (3)/(6): the lower bound on balanced
// scheduling's completion time,
//
//	T_balanced ≥ TR + M × α × (NC−1) × NR.
func (p Params) TBalancedLower() units.Time {
	return p.TR + units.Time(int64(p.M)*int64(p.Alpha())*int64(p.NC-1)*int64(p.NR))
}

// TSourceAware is equation (4)/(5): the source-aware completion time
// with no migration cost,
//
//	T_source-aware = TR + P × NS × NR.
func (p Params) TSourceAware() units.Time {
	return p.TR + units.Time(int64(p.P)*int64(p.NS)*int64(p.NR))
}

// TSourceAwareMulti is inequality (8): with NP ≤ NC programs the
// source-aware time lies in
//
//	TR + P×NS×NR/NP ≤ T ≤ TR + P×NS×NR.
//
// It returns (lower, upper). With NP == 0 or 1 both bounds equal
// TSourceAware.
func (p Params) TSourceAwareMulti() (lo, hi units.Time) {
	hi = p.TSourceAware()
	np := p.NP
	if np <= 1 {
		return hi, hi
	}
	if np > p.NC {
		np = p.NC // at most NC interrupts handled concurrently
	}
	lo = p.TR + units.Time(int64(p.P)*int64(p.NS)*int64(p.NR)/int64(np))
	return lo, hi
}

// AdvantageLower is inequality (9): the lower bound on the completion
// time difference,
//
//	T_balanced − T_source-aware ≥ (NC−1) × NR × α × (M−P).
func (p Params) AdvantageLower() units.Time {
	d := int64(p.M) - int64(p.P)
	return units.Time(int64(p.NC-1) * int64(p.NR) * int64(p.Alpha()) * d)
}

// SourceAwareWins reports whether the model predicts a strict win for
// source-aware scheduling: AdvantageLower positive, which for NC > 1
// reduces to M > P.
func (p Params) SourceAwareWins() bool {
	return p.NC > 1 && p.M > p.P
}

// SpeedupBound returns the model's predicted relative improvement
// (T_balanced_lower − T_source-aware) / T_balanced_lower, clamped to
// [0, 1). It quantifies how the benefit shrinks as TR grows — the
// paper's explanation for the 1-Gigabit results.
func (p Params) SpeedupBound() float64 {
	tb := p.TBalancedLower()
	ts := p.TSourceAware()
	if tb <= 0 || ts >= tb {
		return 0
	}
	return float64(tb-ts) / float64(tb)
}
