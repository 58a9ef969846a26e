package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"sais/internal/rng"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Errorf("empty histogram not all-zero: n=%d mean=%v p50=%v", h.Count(), h.Mean(), h.Percentile(50))
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for v := 1.0; v <= 100; v++ {
		h.Add(v)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("mean = %v, want 50.5 exactly (sum is tracked)", got)
	}
	if got := h.Percentile(0); got != 1 {
		t.Errorf("p0 = %v, want min", got)
	}
	if got := h.Percentile(100); got != 100 {
		t.Errorf("p100 = %v, want max", got)
	}
	p50 := h.Percentile(50)
	if math.Abs(p50-50.5) > 0.05*50.5 {
		t.Errorf("p50 = %v, want ≈50.5", p50)
	}
}

func TestHistogramClampsBadInputs(t *testing.T) {
	var h Histogram
	h.Add(-5)
	h.Add(math.NaN())
	h.Add(3)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Percentile(0); got != 0 {
		t.Errorf("p0 = %v, want 0 (negatives and NaN clamp)", got)
	}
	if got := h.Percentile(100); got != 3 {
		t.Errorf("p100 = %v", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, whole Histogram
	for v := 1.0; v <= 50; v++ {
		a.Add(v)
		whole.Add(v)
	}
	for v := 51.0; v <= 100; v++ {
		b.Add(v)
		whole.Add(v)
	}
	a.Merge(&b)
	a.Merge(nil)
	a.Merge(&Histogram{})
	if a.Count() != whole.Count() {
		t.Fatalf("merged n = %d, want %d", a.Count(), whole.Count())
	}
	for _, p := range []float64{0, 25, 50, 95, 99, 100} {
		if got, want := a.Percentile(p), whole.Percentile(p); got != want {
			t.Errorf("p%v: merged %v != whole %v", p, got, want)
		}
	}
}

// TestHistogramMatchesPercentile is the property test required by the
// issue: histogram percentiles must agree with metrics.Percentile on
// the raw slice within the bucket resolution.
func TestHistogramMatchesPercentile(t *testing.T) {
	check := func(seedLo uint32, scaleExp uint8, count uint16) bool {
		r := rng.New(uint64(seedLo) | 1)
		n := int(count%2000) + 1
		scale := math.Ldexp(1, int(scaleExp%40)) // spans ns..hours in float units
		xs := make([]float64, n)
		var h Histogram
		for i := range xs {
			v := -scale * math.Log(1-r.Float64()) // exponential, mean scale
			xs[i] = v
			h.Add(v)
		}
		for _, p := range []float64{0, 1, 25, 50, 75, 90, 95, 99, 100} {
			exact := Percentile(xs, p)
			est := h.Percentile(p)
			if math.Abs(est-exact) > math.Max(1.0, 0.05*math.Abs(exact)) {
				t.Logf("n=%d scale=%v p%v: est %v vs exact %v", n, scale, p, est, exact)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHistogramWideGapInterpolation(t *testing.T) {
	// Two samples orders of magnitude apart: rank interpolation must
	// mirror Percentile's convention, not snap to a bucket.
	var h Histogram
	h.Add(1)
	h.Add(1e9)
	exact := Percentile([]float64{1, 1e9}, 50)
	got := h.Percentile(50)
	if math.Abs(got-exact) > 0.05*exact {
		t.Errorf("p50 = %v, want ≈%v", got, exact)
	}
}
