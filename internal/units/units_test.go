package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{Microsecond, "1us"},
		{1500 * Nanosecond, "1.5us"},
		{Millisecond, "1ms"},
		{2500 * Microsecond, "2.5ms"},
		{Second, "1s"},
		{-Second, "-1s"},
		{Forever, "forever"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{KiB, "1KiB"},
		{64 * KiB, "64KiB"},
		{MiB, "1MiB"},
		{10 * GiB, "10GiB"},
		{-KiB, "-1KiB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestRateTimeFor(t *testing.T) {
	// 1 Gbit/s moves 125 MB in exactly one second.
	if got := Gigabit.TimeFor(Bytes(125e6)); got != Second {
		t.Errorf("Gigabit.TimeFor(125MB) = %v, want 1s", got)
	}
	if got := Rate(0).TimeFor(KiB); got != Forever {
		t.Errorf("zero rate should take forever, got %v", got)
	}
	if got := Gigabit.TimeFor(0); got != 0 {
		t.Errorf("zero bytes should take zero time, got %v", got)
	}
	if got := Gigabit.TimeFor(-KiB); got != 0 {
		t.Errorf("negative bytes should take zero time, got %v", got)
	}
	// Tiny transfers still advance the clock.
	if got := Gigabit.TimeFor(1); got <= 0 {
		t.Errorf("1 byte at 1Gbit should take positive time, got %v", got)
	}
}

func TestRateTimeForRoundTrip(t *testing.T) {
	// TimeFor and Over are approximate inverses for non-trivial sizes.
	err := quick.Check(func(n uint32, rExp uint8) bool {
		bytes := Bytes(n%(1<<30)) + MiB // at least 1 MiB
		rate := Rate(1+float64(rExp%60)) * MBps
		tt := rate.TimeFor(bytes)
		back := Over(bytes, tt)
		rel := math.Abs(float64(back-rate)) / float64(rate)
		return rel < 1e-6
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestHertzDuration(t *testing.T) {
	f := 2 * GHz
	if got := f.Duration(2e9); got != Second {
		t.Errorf("2GHz for 2e9 cycles = %v, want 1s", got)
	}
	if got := f.Duration(0); got != 0 {
		t.Errorf("zero cycles should be zero time, got %v", got)
	}
	if got := f.Duration(1); got <= 0 {
		t.Errorf("one cycle must advance time, got %v", got)
	}
	if got := Hertz(0).Duration(5); got != Forever {
		t.Errorf("zero frequency should take forever, got %v", got)
	}
}

func TestCyclesInInverse(t *testing.T) {
	f := 2700 * MHz
	err := quick.Check(func(n uint32) bool {
		c := Cycles(n) + 1000
		d := f.Duration(c)
		back := f.CyclesIn(d)
		diff := back - c
		if diff < 0 {
			diff = -diff
		}
		return float64(diff) <= math.Max(4, float64(c)*1e-6)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestDegenerateDenominators(t *testing.T) {
	nan := Rate(math.NaN())
	cases := []struct {
		name string
		got  Time
		want Time
	}{
		{"NaN rate", nan.TimeFor(KiB), Forever},
		{"negative rate", Rate(-1).TimeFor(KiB), Forever},
		{"overflowing transfer", Rate(math.SmallestNonzeroFloat64).TimeFor(GiB), Forever},
		{"NaN frequency", Hertz(math.NaN()).Duration(100), Forever},
		{"negative frequency", Hertz(-2e9).Duration(100), Forever},
		{"overflowing duration", Hertz(math.SmallestNonzeroFloat64).Duration(1), Forever},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %v (%d), want %v", c.name, c.got, int64(c.got), c.want)
		}
	}
	if got := Hertz(math.NaN()).CyclesIn(Second); got != 0 {
		t.Errorf("NaN frequency CyclesIn = %d, want 0", got)
	}
	if got := Hertz(-1).CyclesIn(Second); got != 0 {
		t.Errorf("negative frequency CyclesIn = %d, want 0", got)
	}
	if got := Hertz(math.Inf(1)).CyclesIn(Second); got != Cycles(math.MaxInt64) {
		t.Errorf("Inf frequency CyclesIn = %d, want saturation at MaxInt64", got)
	}
	if got := Over(KiB, -Second); got != 0 {
		t.Errorf("Over with negative time = %v, want 0", got)
	}
}

func TestOver(t *testing.T) {
	if got := Over(Bytes(250e6), 2*Second); got != Rate(125e6) {
		t.Errorf("Over(250MB, 2s) = %v, want 125MB/s", got)
	}
	if got := Over(KiB, 0); got != 0 {
		t.Errorf("Over with zero time = %v, want 0", got)
	}
}
