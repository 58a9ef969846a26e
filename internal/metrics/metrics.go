// Package metrics provides the statistical plumbing for the evaluation
// harness: streaming mean/variance summaries for repeated runs,
// speed-up computation, and small formatting helpers shared by the
// experiment tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates observations with Welford's streaming algorithm,
// so repeated-run statistics are numerically stable regardless of
// magnitude (cycle counts reach 1e12).
type Summary struct {
	n    uint64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Mean returns the sample mean (0 with no observations).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// String renders "mean ± stddev".
func (s *Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g", s.Mean(), s.Stddev())
}

// Speedup returns the relative improvement of treatment over baseline
// for a higher-is-better metric, as a fraction (0.2357 = 23.57 %).
func Speedup(treatment, baseline float64) float64 {
	if baseline == 0 {
		return 0
	}
	return treatment/baseline - 1
}

// Reduction returns the relative decrease from baseline to treatment
// for a lower-is-better metric, as a fraction (0.51 = 51 % lower).
func Reduction(treatment, baseline float64) float64 {
	if baseline == 0 {
		return 0
	}
	return 1 - treatment/baseline
}

// Percent formats a fraction as a signed percentage.
func Percent(frac float64) string { return fmt.Sprintf("%+.2f%%", frac*100) }

// Percentile returns the p-th percentile (0..100) of xs by linear
// interpolation; it sorts a copy.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// tTable holds two-sided 95 % Student-t critical values for 1..30
// degrees of freedom; beyond 30 the normal approximation (1.96) is
// used.
var tTable = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the 95 % confidence interval of the
// mean (0 with fewer than two observations).
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	df := int(s.n) - 1
	t := 1.96
	if df <= len(tTable) {
		t = tTable[df-1]
	}
	return t * s.Stddev() / math.Sqrt(float64(s.n))
}
