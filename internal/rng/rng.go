// Package rng provides the simulator's deterministic random number
// source. Every stochastic component (disk positioning jitter, server
// think time, workload arrivals) draws from an explicitly seeded Source
// so that a run is a pure function of its configuration and seed —
// the global math/rand state is never used.
//
// The generator is splitmix64 feeding xoshiro256**, the same
// construction used by modern language runtimes; it is fast, has a
// 2^256-1 period, and passes BigCrush.
package rng

import "math"

// Source is a deterministic pseudo-random number generator. It is not
// safe for concurrent use; each simulated component owns its own Source
// (derived via Split) so event-ordering changes in one component do not
// perturb another's draws.
type Source struct {
	s [4]uint64
}

// splitmix64 advances a 64-bit state and returns a well-mixed output.
// It is used to expand seeds into xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Derive maps a (seed, stream) pair to an independent child seed with a
// splitmix64-style finalizer. Unlike naive `seed + stream`, adjacent
// (seed, stream) pairs never alias: Derive(s, i) != Derive(s+1, i-1),
// so repeat runs with consecutive root seeds stay uncorrelated.
func Derive(seed, stream uint64) uint64 {
	x := seed + (stream+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// New returns a Source seeded from seed. Distinct seeds give
// independent-looking streams; the zero seed is valid.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed resets the source as if created by New(seed).
func (r *Source) Reseed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
}

// Split derives a new independent Source from r, keyed by label so the
// same component always receives the same stream regardless of the
// order components are constructed in.
func (r *Source) Split(label string) *Source {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return New(h ^ r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's unbiased
// multiply-shift rejection method.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	thresh := -n % n
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= thresh {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Unit01 maps a well-mixed 64-bit value (e.g. a Derive output) to a
// uniform float64 in [0, 1) — the stateless counterpart of Float64,
// used for keyed decisions that must not depend on draw order.
func Unit01(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, via the polar Box-Muller transform.
func (r *Source) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// TruncNormal returns a normal draw clamped to [lo, hi]. It is used for
// physical quantities (seek times, think times) that must stay bounded.
func (r *Source) TruncNormal(mean, stddev, lo, hi float64) float64 {
	v := r.Normal(mean, stddev)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Shuffle permutes s in place.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}
