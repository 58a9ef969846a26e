package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"sais/internal/rng"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.n != 0 || s.Variance() != 0 {
		t.Error("zero summary not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.n != 8 {
		t.Errorf("n = %d", s.n)
	}
	if s.Mean() != 5 {
		t.Errorf("mean = %v, want 5", s.Mean())
	}
	// Population variance of this classic set is 4; sample variance is
	// 32/7.
	if math.Abs(s.Variance()-32.0/7) > 1e-12 {
		t.Errorf("variance = %v, want %v", s.Variance(), 32.0/7)
	}
}

func TestSummarySingleObservation(t *testing.T) {
	var s Summary
	s.Add(42)
	if s.Variance() != 0 || s.Stddev() != 0 {
		t.Error("variance of one observation must be 0")
	}
}

func TestSummaryMatchesNaive(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(100) + 2
		var s Summary
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Normal(1e9, 1e7) // large magnitude stresses stability
			s.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(n)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(n-1)
		return math.Abs(s.Mean()-mean) < 1e-3 &&
			math.Abs(s.Variance()-variance)/math.Max(variance, 1) < 1e-6
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func TestSpeedupAndReduction(t *testing.T) {
	if got := Speedup(123.57, 100); math.Abs(got-0.2357) > 1e-12 {
		t.Errorf("Speedup = %v", got)
	}
	if got := Speedup(90, 100); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("negative speedup = %v", got)
	}
	if Speedup(5, 0) != 0 {
		t.Error("zero baseline speedup")
	}
	if got := Reduction(49, 100); math.Abs(got-0.51) > 1e-12 {
		t.Errorf("Reduction = %v", got)
	}
	if Reduction(5, 0) != 0 {
		t.Error("zero baseline reduction")
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.2357); got != "+23.57%" {
		t.Errorf("Percent = %q", got)
	}
	if got := Percent(-0.05); got != "-5.00%" {
		t.Errorf("Percent = %q", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {62.5, 3.5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile")
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Percentile mutated input")
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.Add(1)
	s.Add(3)
	if got := s.String(); got == "" {
		t.Error("empty String")
	}
}

func TestCI95(t *testing.T) {
	var s Summary
	if s.CI95() != 0 {
		t.Error("empty CI should be 0")
	}
	s.Add(10)
	if s.CI95() != 0 {
		t.Error("single-observation CI should be 0")
	}
	s.Add(12)
	s.Add(14)
	// n=3, mean 12, sd 2, t(2)=4.303 -> CI = 4.303*2/sqrt(3).
	want := 4.303 * 2 / math.Sqrt(3)
	if math.Abs(s.CI95()-want) > 1e-9 {
		t.Errorf("CI95 = %v, want %v", s.CI95(), want)
	}
	// Large n switches to the normal approximation.
	var big Summary
	for i := 0; i < 100; i++ {
		big.Add(float64(i % 10))
	}
	want = 1.96 * big.Stddev() / 10
	if math.Abs(big.CI95()-want) > 1e-9 {
		t.Errorf("large-n CI = %v, want %v", big.CI95(), want)
	}
}
