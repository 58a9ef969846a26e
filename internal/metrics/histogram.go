package metrics

import "math"

// Histogram bucket geometry: log-linear (HDR-style). Each power-of-two
// octave is split into 2^histSubBits linear sub-buckets, bounding the
// relative quantile error at ~1/2^histSubBits (≈3 %) across the full
// positive float range — wide enough for nanosecond latencies without
// pre-declaring bounds.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits // sub-buckets per octave
	histOctaves = 63               // exponents 0..62 (values below 1 share bucket 0)
	histBuckets = 1 + histOctaves*histSub + 1
)

// Histogram is a fixed-shape log-linear latency histogram. The zero
// value is ready to use; the bucket array is allocated on first Add so
// an unused histogram costs a few words. Percentile estimates carry
// ≤ ~3 % relative error and agree with Percentile on the raw samples
// within that bound.
type Histogram struct {
	counts []uint64
	n      uint64
	sum    float64
	min    float64
	max    float64
}

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	e := math.Ilogb(v)
	if e > histOctaves-1 {
		e = histOctaves - 1
	}
	sub := int((v/math.Ldexp(1, e) - 1) * histSub)
	if sub < 0 {
		sub = 0
	}
	if sub >= histSub {
		sub = histSub - 1
	}
	return 1 + e*histSub + sub
}

// bucketMid returns the representative (midpoint) value of a bucket.
func bucketMid(b int) float64 {
	if b == 0 {
		return 0.5
	}
	b--
	e := b / histSub
	sub := b % histSub
	lo := math.Ldexp(1, e) * (1 + float64(sub)/histSub)
	hi := math.Ldexp(1, e) * (1 + float64(sub+1)/histSub)
	return (lo + hi) / 2
}

// Add records one observation. Negative and NaN values clamp to zero —
// latencies cannot be negative, and a poisoned sample must not poison
// the whole distribution.
func (h *Histogram) Add(v float64) {
	if !(v > 0) {
		v = 0
	}
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
	}
	if h.n == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
}

// Merge folds o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
	}
	if h.n == 0 {
		h.min, h.max = o.min, o.max
	} else {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Mean returns the exact mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// valueAtRank returns the representative value of the k-th smallest
// observation (0-based), clamped to the observed [min, max] so the
// extreme ranks are exact.
func (h *Histogram) valueAtRank(k uint64) float64 {
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen > k {
			v := bucketMid(b)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Percentile estimates the p-th percentile (0..100) with the same
// rank-interpolation convention as Percentile on a raw slice, so the
// two agree within the histogram's bucket resolution.
func (h *Histogram) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := p / 100 * float64(h.n-1)
	k := uint64(math.Floor(rank))
	frac := rank - float64(k)
	lo := h.valueAtRank(k)
	if frac == 0 {
		return lo
	}
	hi := h.valueAtRank(k + 1)
	return lo*(1-frac) + hi*frac
}
