package main

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"
)

// percentile returns the q-quantile (0 <= q <= 1) of an ascending
// slice, interpolating linearly between the two closest ranks, so a
// reported latency keeps every digit of the samples it came from. It
// returns NaN for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs without reordering the caller's
// slice.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return percentile(s, 0.5)
}

// durQuantiles returns the requested quantiles of nanosecond samples,
// in microseconds. The samples are left as they are.
func durQuantiles(ns []int64, qs ...float64) []float64 {
	s := make([]float64, len(ns))
	for i, v := range ns {
		s[i] = float64(v) / 1e3
	}
	slices.Sort(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = percentile(s, q)
	}
	return out
}

// subBuckets is the resolution of atomicHist: 64 linear sub-buckets
// per power of two, about 1.1% relative width.
const subBuckets = 64

// atomicHist is a log-linear histogram of nanosecond durations that
// many goroutines may observe into at once — the timing journal runs
// under the registry's shard locks, where a mutex-guarded sample
// slice would add the contention it is trying to measure.
type atomicHist struct {
	counts [64 * subBuckets]atomic.Uint64
	sum    atomic.Int64
}

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(ns uint64) int {
	if ns < subBuckets {
		return int(ns) // exact below 64ns
	}
	o := bits.Len64(ns) - 1 // floor(log2 ns) >= 6
	sub := (ns >> (o - 6)) & (subBuckets - 1)
	return (o-5)*subBuckets + int(sub)
}

// bucketRange returns the [lo, hi) nanosecond range of bucket i.
func bucketRange(i int) (lo, hi float64) {
	if i < subBuckets {
		return float64(i), float64(i + 1)
	}
	o := i/subBuckets + 5
	sub := uint64(i % subBuckets)
	width := uint64(1) << (o - 6)
	l := (uint64(1) << o) | sub*width
	return float64(l), float64(l + width)
}

func (h *atomicHist) observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))].Add(1)
	h.sum.Add(ns)
}

// histSnap is a point-in-time copy of an atomicHist; subtracting two
// snapshots gives the observations of one phase.
type histSnap struct {
	counts [64 * subBuckets]uint64
	sum    int64
}

func (h *atomicHist) snap() *histSnap {
	s := &histSnap{sum: h.sum.Load()}
	for i := range h.counts {
		s.counts[i] = h.counts[i].Load()
	}
	return s
}

// minus returns the observations in s that are not in base.
func (s *histSnap) minus(base *histSnap) *histSnap {
	d := &histSnap{sum: s.sum - base.sum}
	for i := range s.counts {
		d.counts[i] = s.counts[i] - base.counts[i]
	}
	return d
}

func (s *histSnap) count() uint64 {
	var n uint64
	for _, c := range s.counts {
		n += c
	}
	return n
}

// meanNs is the exact mean of the observed durations.
func (s *histSnap) meanNs() float64 {
	n := s.count()
	if n == 0 {
		return 0
	}
	return float64(s.sum) / float64(n)
}

// quantileNs returns the q-quantile, interpolated linearly inside the
// bucket the rank falls in (the observations of a bucket are taken as
// spread evenly over its range).
func (s *histSnap) quantileNs(q float64) float64 {
	n := s.count()
	if n == 0 {
		return 0
	}
	rank := q * float64(n-1)
	var seen float64
	for i, c := range s.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			lo, hi := bucketRange(i)
			return lo + (hi-lo)*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	lo, hi := bucketRange(len(s.counts) - 1)
	return (lo + hi) / 2
}
