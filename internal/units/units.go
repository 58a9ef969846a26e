// Package units defines the scalar quantity types shared by every
// subsystem of the SAIs simulator: simulated time, byte counts, data
// rates, and CPU clock frequencies.
//
// The simulator keeps all time as integer nanoseconds (units.Time) so
// event ordering is exact and runs are bit-reproducible; rates are
// float64 bytes-per-second only at the edges where division is needed.
package units

import (
	"fmt"
	"math"
)

// Time is a point on (or span of) the simulated clock in nanoseconds.
// It is deliberately distinct from time.Duration: simulated time has no
// relationship to the wall clock and must never be passed to the
// standard library's timers.
type Time int64

// Common spans expressed in simulator time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a sentinel meaning "no deadline".
const Forever Time = math.MaxInt64

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time with an adaptive unit suffix.
func (t Time) String() string {
	switch {
	case t == Forever:
		return "forever"
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3gus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6gs", t.Seconds())
	}
}

// Bytes is a byte count. Strips, transfers, cache capacities, and NIC
// queues are all measured in Bytes.
type Bytes int64

// Common sizes.
const (
	Byte Bytes = 1
	KiB  Bytes = 1024 * Byte
	MiB  Bytes = 1024 * KiB
	GiB  Bytes = 1024 * MiB
)

// String renders the size with a binary-unit suffix.
func (b Bytes) String() string {
	switch {
	case b < 0:
		return "-" + (-b).String()
	case b < KiB:
		return fmt.Sprintf("%dB", int64(b))
	case b < MiB:
		return fmt.Sprintf("%.4gKiB", float64(b)/float64(KiB))
	case b < GiB:
		return fmt.Sprintf("%.4gMiB", float64(b)/float64(MiB))
	default:
		return fmt.Sprintf("%.4gGiB", float64(b)/float64(GiB))
	}
}

// Rate is a data rate in bytes per second.
type Rate float64

// Common rates. Network rates follow the decimal convention used on
// datasheets (1 Gbit/s = 125e6 B/s); memory rates are quoted directly.
const (
	MBps Rate = 1e6

	// Gigabit is the payload rate of one 1-Gbit/s Ethernet port.
	Gigabit Rate = 125 * MBps
)

// String renders the rate in MB/s (decimal), matching the simulator's
// report tables.
func (r Rate) String() string { return fmt.Sprintf("%.4gMB/s", float64(r)/float64(MBps)) }

// TimeFor returns the time needed to move n bytes at rate r, rounded up
// to a whole nanosecond so a positive transfer never takes zero time.
// A rate that is zero, negative, or NaN means the link can never finish:
// the result is Forever, never a garbage conversion of NaN/Inf.
func (r Rate) TimeFor(n Bytes) Time {
	if !(r > 0) { // also catches NaN, which fails every comparison
		return Forever
	}
	if n <= 0 {
		return 0
	}
	t := math.Ceil(float64(n) / float64(r) * float64(Second))
	if !(t < float64(math.MaxInt64)) { // +Inf and NaN both land here
		return Forever
	}
	return Time(t)
}

// Over returns the average rate achieved moving n bytes in span t. A
// zero or negative span yields 0 — an undefined average, reported as
// "no throughput" rather than Inf.
func Over(n Bytes, t Time) Rate {
	if t <= 0 {
		return 0
	}
	return Rate(float64(n) / t.Seconds())
}

// Hertz is a CPU clock frequency in cycles per second.
type Hertz float64

// Common frequencies.
const (
	MHz Hertz = 1e6
	GHz Hertz = 1e9
)

// Cycles is a CPU cycle count.
type Cycles int64

// Duration converts a cycle count at frequency f into simulated time,
// rounding up so positive work always advances the clock. A stopped
// clock (zero, negative, or NaN frequency) never finishes: Forever.
func (f Hertz) Duration(c Cycles) Time {
	if !(f > 0) { // also catches NaN
		return Forever
	}
	if c <= 0 {
		return 0
	}
	t := math.Ceil(float64(c) / float64(f) * float64(Second))
	if !(t < float64(math.MaxInt64)) { // +Inf and NaN both land here
		return Forever
	}
	return Time(t)
}

// CyclesIn returns how many cycles elapse at frequency f during span t.
// A stopped clock accumulates no cycles, and an overflowing product
// saturates instead of converting Inf to a negative count.
func (f Hertz) CyclesIn(t Time) Cycles {
	if t <= 0 || !(f > 0) {
		return 0
	}
	c := float64(f) * t.Seconds()
	if !(c < float64(math.MaxInt64)) {
		return Cycles(math.MaxInt64)
	}
	return Cycles(c)
}

// String renders the frequency in GHz.
func (f Hertz) String() string { return fmt.Sprintf("%.4gGHz", float64(f)/float64(GHz)) }
