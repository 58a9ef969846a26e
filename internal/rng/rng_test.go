package rng

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestReseed(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after Reseed draw %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(99)
	a := root.Split("disk")
	root2 := New(99)
	b := root2.Split("disk")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Split is not deterministic at draw %d", i)
		}
	}
	// Different labels must give different streams.
	c := New(99).Split("disk")
	d := New(99).Split("nic")
	same := 0
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("labels disk/nic produced %d/100 identical draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared sanity check over 8 buckets.
	r := New(1234)
	const buckets, draws = 8, 80000
	var count [buckets]int
	for i := 0; i < draws; i++ {
		count[r.Uint64n(buckets)]++
	}
	expect := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range count {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	// 7 degrees of freedom; 99.9th percentile ≈ 24.3.
	if chi2 > 24.3 {
		t.Errorf("chi-squared = %.2f, suspiciously non-uniform: %v", chi2, count)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(9)
	const mean, sd, n = 40.0, 5.0, 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(mean, sd)
		sum += v
		sumsq += v * v
	}
	m := sum / n
	variance := sumsq/n - m*m
	if math.Abs(m-mean) > 0.1 {
		t.Errorf("Normal mean = %.3f, want ~%.1f", m, mean)
	}
	if math.Abs(math.Sqrt(variance)-sd) > 0.1 {
		t.Errorf("Normal stddev = %.3f, want ~%.1f", math.Sqrt(variance), sd)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	r := New(10)
	for i := 0; i < 10000; i++ {
		v := r.TruncNormal(10, 50, 2, 12)
		if v < 2 || v > 12 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(11)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	trues := 0
	for i := 0; i < 100000; i++ {
		if r.Bool(0.25) {
			trues++
		}
	}
	frac := float64(trues) / 100000
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("Bool(0.25) frequency = %.3f", frac)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(13)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Errorf("Shuffle changed multiset: sum %d != %d", got, sum)
	}
}

func TestMul64(t *testing.T) {
	hi, lo := mul64(math.MaxUint64, math.MaxUint64)
	if hi != math.MaxUint64-1 || lo != 1 {
		t.Errorf("mul64(max,max) = (%d,%d)", hi, lo)
	}
	hi, lo = mul64(1<<32, 1<<32)
	if hi != 1 || lo != 0 {
		t.Errorf("mul64(2^32,2^32) = (%d,%d), want (1,0)", hi, lo)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func TestDeriveNoDiagonalAliasing(t *testing.T) {
	// The bug Derive fixes: seed+stream addition makes run seed S,
	// stream i collide with run seed S+1, stream i-1. Check a grid.
	seen := map[uint64]string{}
	for seed := uint64(1); seed <= 8; seed++ {
		for stream := uint64(0); stream < 64; stream++ {
			d := Derive(seed, stream)
			if prev, ok := seen[d]; ok {
				t.Fatalf("Derive(%d,%d) collides with %s", seed, stream, prev)
			}
			seen[d] = fmt.Sprintf("Derive(%d,%d)", seed, stream)
			if naive := seed + stream; d == naive {
				t.Errorf("Derive(%d,%d) equals the naive sum %d", seed, stream, naive)
			}
		}
	}
}

func TestDeriveDeterministic(t *testing.T) {
	if Derive(42, 3) != Derive(42, 3) {
		t.Error("Derive is not a pure function")
	}
	if Derive(42, 3) == Derive(42, 4) || Derive(42, 3) == Derive(43, 3) {
		t.Error("adjacent inputs should map to distinct outputs")
	}
}
