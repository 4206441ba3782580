package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// hist is a fixed-size log-linear histogram of non-negative int64
// samples (nanoseconds here): exact below 64, then 64 sub-buckets per
// power of two (bucket width ≤ 1.6 % of its lower bound). Observe is one
// atomic add, so every receiver goroutine shares one histogram per
// window without a lock, and the memory is constant whatever the
// delivery rate — a per-sample array at 2.5 M deliveries/s would make
// the benchmark, not the emulator, the process's peak RSS. (The
// program's own obs.Histogram has log₂ buckets: a p99 within a factor of
// two cannot be held to a 25 % bound.)
type hist struct {
	counts [histBuckets]atomic.Uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histMaxExp  = 40 // values ≥ 2^40 ns (18 min) clamp into the last bucket
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	if e >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(v>>(uint(e)-histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + sub
}

// histBounds returns bucket i's inclusive lower bound and its width.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := i/histSub + histSubBits - 1
	sub := i % histSub
	w := math.Ldexp(1, e-histSubBits)
	return math.Ldexp(1, e) + float64(sub)*w, w
}

func (h *hist) observe(v int64) { h.counts[histIndex(v)].Add(1) }

func (h *hist) snapshot() *histSnap {
	s := &histSnap{}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.counts[i] = c
		s.total += c
	}
	return s
}

// drainInto moves h's counts into s (overwriting it) and leaves h empty
// for reuse; a sample that lands during the call is in one or the other.
func (h *hist) drainInto(s *histSnap) {
	s.total = 0
	for i := range h.counts {
		c := h.counts[i].Swap(0)
		s.counts[i] = c
		s.total += c
	}
}

// histSnap is a plain copy of a hist, mergeable and queryable.
type histSnap struct {
	counts [histBuckets]uint64
	total  uint64
}

func (s *histSnap) add(o *histSnap) {
	for i, c := range o.counts {
		s.counts[i] += c
	}
	s.total += o.total
}

// quantile returns the q-quantile, linearly interpolated inside the
// containing bucket; 0 on an empty histogram.
func (s *histSnap) quantile(q float64) float64 {
	if s.total == 0 {
		return 0
	}
	rank := q * float64(s.total-1)
	cum := 0.0
	for i, c := range s.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			lo, w := histBounds(i)
			return lo + w*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + w
}

// shareAbove returns the fraction of samples in buckets wholly above v.
func (s *histSnap) shareAbove(v int64) float64 {
	if s.total == 0 {
		return 0
	}
	var n uint64
	for i := histIndex(v) + 1; i < histBuckets; i++ {
		n += s.counts[i]
	}
	return float64(n) / float64(s.total)
}

// median returns the middle value of xs (mean of the middle two for an
// even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// padded keeps each striped counter on its own cache line.
type padded struct {
	n atomic.Uint64
	_ [56]byte
}

// striped is a counter spread over 64 cache lines, indexed by the
// caller's id, so thousands of receiver goroutines do not bounce one
// line between two cores.
type striped [64]padded

func (s *striped) add(id uint32) { s[id&63].n.Add(1) }

func (s *striped) sum() uint64 {
	var t uint64
	for i := range s {
		t += s[i].n.Load()
	}
	return t
}
