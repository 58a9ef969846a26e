package irqsched

import (
	"encoding/json"
	"errors"
	"testing"

	"sais/internal/apic"
	"sais/internal/units"
)

// fakeLoads is a scriptable LoadReader.
type fakeLoads struct {
	busy  []units.Time
	queue []int
}

func (f *fakeLoads) NumCores() int             { return len(f.busy) }
func (f *fakeLoads) CoreBusy(i int) units.Time { return f.busy[i] }
func (f *fakeLoads) CoreQueue(i int) int       { return f.queue[i] }

func allowed(n int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	return a
}

func TestRoundRobinCycles(t *testing.T) {
	p := NewRoundRobin()
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, p.Route(1, apic.NoHint, 0, allowed(4), 0))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence = %v, want %v", got, want)
		}
	}
}

func TestRoundRobinRestrictedSet(t *testing.T) {
	p := NewRoundRobin()
	set := []int{2, 5}
	if a, b := p.Route(1, apic.NoHint, 0, set, 0), p.Route(1, apic.NoHint, 0, set, 0); a != 2 || b != 5 {
		t.Errorf("restricted rr = %d,%d, want 2,5", a, b)
	}
}

func TestDedicated(t *testing.T) {
	p := NewDedicated(3)
	if got := p.Route(1, 0, 0, allowed(8), 0); got != 3 {
		t.Errorf("dedicated routed to %d, want 3 (ignoring hint)", got)
	}
	// Dedicated core not in allowed set falls back to first allowed.
	if got := p.Route(1, apic.NoHint, 0, []int{1, 2}, 0); got != 1 {
		t.Errorf("fallback = %d, want 1", got)
	}
}

func TestSourceAwareFollowsHint(t *testing.T) {
	p := NewSourceAware()
	for hint := 0; hint < 4; hint++ {
		if got := p.Route(1, hint, 0, allowed(4), 0); got != hint {
			t.Errorf("hint %d routed to %d", hint, got)
		}
	}
}

func TestSourceAwareFallsBack(t *testing.T) {
	p, rr := NewSourceAware(), NewRoundRobin()
	if got, want := p.Route(1, apic.NoHint, 0, allowed(4), 0), rr.Route(1, apic.NoHint, 0, allowed(4), 0); got != want {
		t.Errorf("no-hint fallback = %d, want round-robin's %d", got, want)
	}
	// Hint outside the allowed set also falls back.
	if got, want := p.Route(1, 7, 0, []int{1, 2}, 0), rr.Route(1, 7, 0, []int{1, 2}, 0); got != want || got == 1 {
		t.Errorf("disallowed hint fallback = %d, want round-robin's second pick %d", got, want)
	}
}

func TestIrqbalancePicksLeastLoaded(t *testing.T) {
	loads := &fakeLoads{
		busy:  []units.Time{1000, 10, 5000, 10},
		queue: make([]int, 4),
	}
	p := NewIrqbalance(loads, 10*units.Millisecond)
	// First route triggers a resample at t=period.
	got := p.Route(1, apic.NoHint, 0, allowed(4), 10*units.Millisecond)
	if got != 1 && got != 3 {
		t.Errorf("routed to %d, want a least-loaded core (1 or 3)", got)
	}
}

func TestIrqbalanceSpreadsAcrossEqualCores(t *testing.T) {
	loads := &fakeLoads{busy: make([]units.Time, 4), queue: make([]int, 4)}
	p := NewIrqbalance(loads, 10*units.Millisecond)
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		seen[p.Route(1, apic.NoHint, 0, allowed(4), 0)] = true
	}
	if len(seen) < 3 {
		t.Errorf("equal-load routing used only cores %v; should spread", seen)
	}
}

func TestIrqbalanceUsesQueuePressure(t *testing.T) {
	loads := &fakeLoads{busy: make([]units.Time, 2), queue: []int{50, 0}}
	p := NewIrqbalance(loads, 10*units.Millisecond)
	for i := 0; i < 4; i++ {
		if got := p.Route(1, apic.NoHint, 0, allowed(2), 0); got != 1 {
			t.Errorf("route %d = %d, want 1 (core 0 has deep queue)", i, got)
		}
	}
}

func TestIrqbalanceResamplesPerPeriod(t *testing.T) {
	loads := &fakeLoads{busy: []units.Time{0, 0}, queue: []int{0, 0}}
	p := NewIrqbalance(loads, units.Millisecond)
	p.Route(1, apic.NoHint, 0, allowed(2), units.Millisecond) // sample 1
	// Core 0 accumulates load; before the next period the policy must
	// not see it...
	loads.busy[0] = 500 * units.Microsecond
	mid := p.delta[0]
	p.Route(1, apic.NoHint, 0, allowed(2), units.Millisecond+1)
	if p.delta[0] != mid {
		t.Error("delta changed within a sampling period")
	}
	// ...after the period it must.
	p.Route(1, apic.NoHint, 0, allowed(2), 2*units.Millisecond+1)
	if p.delta[0] != 500*units.Microsecond {
		t.Errorf("delta after resample = %v, want 500us", p.delta[0])
	}
}

func TestIrqbalancePeriodValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero period did not panic")
		}
	}()
	NewIrqbalance(&fakeLoads{busy: []units.Time{0}, queue: []int{0}}, 0)
}

func TestPolicyKindString(t *testing.T) {
	if PolicySourceAware.String() != "sais" || PolicyIrqbalance.String() != "irqbalance" {
		t.Error("policy names wrong")
	}
	if PolicyKind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]PolicyKind{
		"roundrobin":  PolicyRoundRobin,
		"dedicated":   PolicyDedicated,
		"irqbalance":  PolicyIrqbalance,
		"sais":        PolicySourceAware,
		"flowhash":    PolicyFlowHash,
		"hybrid":      PolicyHybrid,
		"sais-socket": PolicySocketAware,
		"rss":         PolicyHardwareRSS,
	} {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy parsed")
	}
}

// TestPolicyKindJSON: a policy encodes as its registered name and
// decodes back; an integer, an unknown name or an unregistered kind is
// an error, not a silent zero.
func TestPolicyKindJSON(t *testing.T) {
	for _, k := range kinds() {
		b, err := json.Marshal(k)
		if err != nil || string(b) != `"`+k.String()+`"` {
			t.Errorf("Marshal(%v) = %s, %v", k, b, err)
		}
		var got PolicyKind
		if err := json.Unmarshal(b, &got); err != nil || got != k {
			t.Errorf("Unmarshal(%s) = %v, %v", b, got, err)
		}
	}
	for _, src := range []string{`3`, `"bogus"`} {
		var got PolicyKind
		if err := json.Unmarshal([]byte(src), &got); err == nil {
			t.Errorf("Unmarshal(%s) = %v, want an error", src, got)
		}
	}
	var upe *UnknownPolicyError
	if _, err := json.Marshal(PolicyKind(42)); !errors.As(err, &upe) {
		t.Errorf("Marshal(PolicyKind(42)) error = %v, want *UnknownPolicyError", err)
	}
}

func TestNewConstructor(t *testing.T) {
	loads := &fakeLoads{busy: []units.Time{0}, queue: []int{0}}
	for _, k := range kinds() {
		r, err := New(k, Options{Loads: loads, Period: units.Millisecond})
		if err != nil || r == nil {
			t.Errorf("New(%v) = %v, %v", k, r, err)
		}
	}
	// Zero-valued Options must still construct every parseable policy
	// (nil loads, zero period, zero cores): New is total, no panics.
	for _, name := range Names() {
		k, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		r, err := New(k, Options{})
		if err != nil || r == nil {
			t.Errorf("New(%v, zero Options) = %v, %v", k, r, err)
			continue
		}
		// The router must be immediately usable.
		if got := r.Route(64, apic.NoHint, 7, allowed(4), 0); got < 0 || got > 3 {
			t.Errorf("New(%v) router routed outside allowed: %d", k, got)
		}
	}
	r, err := New(PolicyKind(42), Options{})
	if r != nil || err == nil {
		t.Fatalf("New(42) = %v, %v, want UnknownPolicyError", r, err)
	}
	var upe *UnknownPolicyError
	if !errors.As(err, &upe) || upe.Kind != PolicyKind(42) {
		t.Errorf("error = %v, want *UnknownPolicyError{42}", err)
	}
}

func TestFlowHashStickyPerFlow(t *testing.T) {
	p := NewFlowHash()
	for flow := uint64(100); flow < 120; flow++ {
		first := p.Route(1, apic.NoHint, flow, allowed(8), 0)
		for i := 0; i < 5; i++ {
			if got := p.Route(1, apic.NoHint, flow, allowed(8), 0); got != first {
				t.Fatalf("flow %d moved: %d then %d", flow, first, got)
			}
		}
	}
}

func TestFlowHashSpreadsFlows(t *testing.T) {
	p := NewFlowHash()
	seen := map[int]bool{}
	for flow := uint64(0); flow < 64; flow++ {
		seen[p.Route(1, apic.NoHint, flow, allowed(8), 0)] = true
	}
	if len(seen) < 6 {
		t.Errorf("64 flows landed on only %d of 8 cores", len(seen))
	}
}

func TestFlowHashIgnoresHint(t *testing.T) {
	p := NewFlowHash()
	a := p.Route(1, 3, 42, allowed(8), 0)
	b := p.Route(1, 5, 42, allowed(8), 0)
	if a != b {
		t.Error("flowhash must depend only on the flow, not the hint")
	}
}

func TestHybridFollowsHintWhenIdle(t *testing.T) {
	loads := &fakeLoads{busy: make([]units.Time, 4), queue: make([]int, 4)}
	p := NewHybrid(loads, units.Millisecond, 4)
	if got := p.Route(1, 2, 0, allowed(4), 0); got != 2 {
		t.Errorf("idle hinted core not followed: %d", got)
	}
}

func TestHybridDivertsFromSaturatedCore(t *testing.T) {
	loads := &fakeLoads{busy: make([]units.Time, 4), queue: []int{0, 0, 50, 0}}
	p := NewHybrid(loads, units.Millisecond, 4)
	got := p.Route(1, 2, 0, allowed(4), 0)
	if got == 2 {
		t.Error("interrupt delivered to a saturated core")
	}
	if want := NewIrqbalance(loads, units.Millisecond).Route(1, 2, 0, allowed(4), 0); got != want {
		t.Errorf("diverted to %d, want irqbalance's choice %d", got, want)
	}
}

func TestHybridNoHintBalances(t *testing.T) {
	loads := &fakeLoads{busy: make([]units.Time, 4), queue: make([]int, 4)}
	p := NewHybrid(loads, units.Millisecond, 4)
	got := p.Route(1, apic.NoHint, 0, allowed(4), 0)
	if want := NewIrqbalance(loads, units.Millisecond).Route(1, apic.NoHint, 0, allowed(4), 0); got != want {
		t.Errorf("hint-less route = %d, want irqbalance's choice %d", got, want)
	}
}

func TestHybridThresholdValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero threshold did not panic")
		}
	}()
	NewHybrid(&fakeLoads{busy: []units.Time{0}, queue: []int{0}}, units.Millisecond, 0)
}

func TestSocketAwareStaysOnSocket(t *testing.T) {
	loads := &fakeLoads{busy: make([]units.Time, 8), queue: []int{0, 5, 0, 0, 0, 0, 0, 0}}
	p := NewSocketAware(loads, 4)
	// Hint core 1 (socket 0): must pick a socket-0 core, preferring the
	// least-queued one (core 0, 2 or 3 — not 1 with queue 5).
	got := p.Route(1, 1, 0, allowed(8), 0)
	if got/4 != 0 {
		t.Errorf("routed to core %d on socket %d, want socket 0", got, got/4)
	}
	if got == 1 {
		t.Error("picked the queued core despite idle siblings")
	}
	// Hint core 6 (socket 1).
	if got := p.Route(1, 6, 0, allowed(8), 0); got/4 != 1 {
		t.Errorf("routed to core %d, want socket 1", got)
	}
}

func TestSocketAwareFallsBackWithoutHint(t *testing.T) {
	loads := &fakeLoads{busy: make([]units.Time, 8), queue: make([]int, 8)}
	p, rr := NewSocketAware(loads, 4), NewRoundRobin()
	for i := 0; i < 3; i++ {
		if got, want := p.Route(1, apic.NoHint, 0, allowed(8), 0), rr.Route(1, apic.NoHint, 0, allowed(8), 0); got != want {
			t.Errorf("no-hint fallback %d = %d, want round-robin's %d", i, got, want)
		}
	}
}

func TestSocketAwareValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero socket size accepted")
		}
	}()
	NewSocketAware(nil, 0)
}
