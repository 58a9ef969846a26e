package irqsched

import (
	"sais/internal/apic"
	"sais/internal/toeplitz"
	"sais/internal/units"
)

// Toeplitz is receive-side scaling as real NICs implement it: the
// Microsoft Toeplitz hash of the flow identity indexes a 128-entry
// indirection table whose slots are filled round-robin over the cores
// at configuration time. Unlike FlowHash's ad-hoc integer mix, the
// hash and table sizes match the hardware spec, so steering skew
// (flows colliding on a slot) shows up at realistic magnitudes.
type Toeplitz struct {
	indir [128]int
	hits  uint64
	moved uint64 // target core absent from allowed; folded into allowed
}

// NewToeplitz builds the policy for a machine with cores cores
// (< 1 means 1). The indirection table is i mod cores — the default
// every OS programs before any rebalancing.
func NewToeplitz(cores int) *Toeplitz {
	if cores < 1 {
		cores = 1
	}
	t := &Toeplitz{}
	for i := range t.indir {
		t.indir[i] = i % cores
	}
	return t
}

// Route implements apic.Router.
func (t *Toeplitz) Route(_ apic.Vector, _ int, flow uint64, allowed []int, _ units.Time) int {
	target := t.indir[toeplitz.HashUint64(flow)&127]
	for _, c := range allowed {
		if c == target {
			t.hits++
			return c
		}
	}
	t.moved++
	return allowed[target%len(allowed)]
}

// Counters implements CounterReporter.
func (t *Toeplitz) Counters() map[string]uint64 {
	return map[string]uint64{
		"toeplitz_hits":  t.hits,
		"toeplitz_moved": t.moved,
	}
}
