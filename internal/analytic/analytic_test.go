package analytic

import (
	"testing"
	"testing/quick"

	"sais/internal/rng"
	"sais/internal/units"
)

func base() Params {
	return Params{
		P:  20 * units.Microsecond,
		M:  200 * units.Microsecond,
		TR: 5 * units.Millisecond,
		NC: 8,
		NS: 16,
		NR: 100,
		NP: 2,
	}
}

func TestValidate(t *testing.T) {
	if err := base().Validate(); err != nil {
		t.Errorf("base params rejected: %v", err)
	}
	mods := []func(*Params){
		func(p *Params) { p.P = 0 },
		func(p *Params) { p.M = -1 },
		func(p *Params) { p.TR = -1 },
		func(p *Params) { p.NC = 0 },
		func(p *Params) { p.NS = 0 },
		func(p *Params) { p.NR = 0 },
		func(p *Params) { p.NP = -1 },
		func(p *Params) { p.NS = 17 }, // not a multiple of NC
	}
	for i, mod := range mods {
		p := base()
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestAlphaAndDominance(t *testing.T) {
	p := base()
	if p.Alpha() != 2 {
		t.Errorf("alpha = %d, want 2", p.Alpha())
	}
	if !p.MDominatesP() {
		t.Error("M=10P should count as dominant")
	}
	p.M = 5 * p.P
	if p.MDominatesP() {
		t.Error("M=5P should not count as dominant")
	}
}

func TestEquations(t *testing.T) {
	p := base()
	// (3)/(6): TR + M·α·(NC−1)·NR = 5ms + 200µs·2·7·100 = 5ms + 280ms.
	if got, want := p.TBalancedLower(), 5*units.Millisecond+280*units.Millisecond; got != want {
		t.Errorf("TBalancedLower = %v, want %v", got, want)
	}
	// (4)/(5): TR + P·NS·NR = 5ms + 20µs·16·100 = 5ms + 32ms.
	if got, want := p.TSourceAware(), 5*units.Millisecond+32*units.Millisecond; got != want {
		t.Errorf("TSourceAware = %v, want %v", got, want)
	}
	// (9): (NC−1)·NR·α·(M−P) = 7·100·2·180µs = 252ms.
	if got, want := p.AdvantageLower(), 252*units.Millisecond; got != want {
		t.Errorf("AdvantageLower = %v, want %v", got, want)
	}
}

func TestMultiProgramBounds(t *testing.T) {
	p := base()
	lo, hi := p.TSourceAwareMulti()
	if hi != p.TSourceAware() {
		t.Errorf("upper bound %v != single-program time", hi)
	}
	// NP=2: lower = TR + P·NS·NR/2 = 5ms + 16ms.
	if want := 5*units.Millisecond + 16*units.Millisecond; lo != want {
		t.Errorf("lower bound = %v, want %v", lo, want)
	}
	// NP beyond NC clamps at NC.
	p.NP = 100
	lo, _ = p.TSourceAwareMulti()
	if want := 5*units.Millisecond + 4*units.Millisecond; lo != want {
		t.Errorf("clamped lower bound = %v, want %v", lo, want)
	}
	// NP <= 1 degenerates to the single-program time.
	p.NP = 0
	lo, hi = p.TSourceAwareMulti()
	if lo != hi || lo != p.TSourceAware() {
		t.Errorf("NP=0 bounds = %v, %v", lo, hi)
	}
}

// Property (the paper's central claim): whenever M > P and NC > 1, the
// balanced lower bound exceeds the source-aware time by at least
// AdvantageLower — i.e. T_balanced − T_sais ≥ (NC−1)·NR·α·(M−P) ≥ 0.
func TestOrderingProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		p := Params{
			P:  units.Time(r.Intn(100)+1) * units.Microsecond,
			TR: units.Time(r.Intn(20)) * units.Millisecond,
			NC: r.Intn(7) + 2, // ≥ 2
			NR: r.Intn(500) + 1,
			NP: r.Intn(8),
		}
		p.M = p.P + units.Time(r.Intn(400)+1)*units.Microsecond // M > P
		p.NS = p.NC * (r.Intn(6) + 1)
		if p.Validate() != nil {
			return false
		}
		if !p.SourceAwareWins() {
			return false
		}
		diff := p.TBalancedLower() - p.TSourceAware()
		adv := p.AdvantageLower()
		if adv <= 0 {
			return false
		}
		// The bound in the paper drops the α-vs-(NC-1)/NC slack, so the
		// realized difference must be at least adv minus the slack term
		// P·NS·NR − P·α·(NC−1)·NR = P·α·NR.
		slack := units.Time(int64(p.P) * int64(p.Alpha()) * int64(p.NR))
		return diff >= adv-slack
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestSpeedupBoundShrinksWithTR(t *testing.T) {
	small := base()
	big := base()
	big.TR = 500 * units.Millisecond
	if small.SpeedupBound() <= big.SpeedupBound() {
		t.Errorf("speedup bound %v should shrink as TR grows to %v",
			small.SpeedupBound(), big.SpeedupBound())
	}
	if s := small.SpeedupBound(); s <= 0 || s >= 1 {
		t.Errorf("speedup bound = %v outside (0,1)", s)
	}
}

func TestSpeedupBoundZeroWhenBalancedWins(t *testing.T) {
	p := base()
	p.M = p.P / 2 // migration cheaper than processing: model favors balance
	if got := p.SpeedupBound(); got != 0 {
		t.Errorf("speedup bound = %v, want 0", got)
	}
}
