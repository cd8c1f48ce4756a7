package main

import (
	"math"
	"math/bits"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// histSub is the number of linear sub-buckets per power of two: a value
// is recorded with a relative error below 1/histSub.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = 64 * histSub
)

// Hist is a lock-free log-linear histogram of non-negative int64 values
// (nanoseconds here). Values below histSub are exact; above, each power
// of two is split into histSub equal buckets, so a quantile read back is
// within 1/histSub (< 0.8%) of the exact order statistic.
type Hist struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
}

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	return (e+1)*histSub + int(uint64(v)>>uint(e)) - histSub
}

// histBounds returns the low end and the width of bucket i's range.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := i/histSub - 1
	return float64(uint64(i%histSub+histSub) << uint(e)), float64(uint64(1) << uint(e))
}

// Add records one value.
func (h *Hist) Add(v int64) {
	h.counts[histIndex(v)].Add(1)
	h.n.Add(1)
}

// Count is the number of recorded values.
func (h *Hist) Count() uint64 { return h.n.Load() }

// Quantile returns the nearest-rank q-quantile (0 < q <= 1): the value
// of rank ceil(q·n), read back by spreading its bucket's values evenly
// over the bucket's range. 0 when empty.
func (h *Hist) Quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(nearestRank(q, int(n)))
	var seen uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if seen+c >= rank {
			lo, width := histBounds(i)
			return lo + width*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

// nearestRank is the 1-based rank of the q-quantile among n values.
func nearestRank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantileSorted is the exact nearest-rank q-quantile of ascending xs.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[nearestRank(q, len(xs))-1]
}

// median of an unsorted sample (the slice is sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantileSorted(xs, 0.5)
}

// meanOf is the arithmetic mean (0 when empty).
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// counter accumulates a count and a sum of int64 durations.
type counter struct {
	n   atomic.Int64
	sum atomic.Int64
}

func (c *counter) add(v int64) {
	c.n.Add(1)
	c.sum.Add(v)
}

func (c *counter) mean() float64 {
	n := c.n.Load()
	if n == 0 {
		return 0
	}
	return float64(c.sum.Load()) / float64(n)
}

// bitset is a fixed-size concurrent set of record indices.
type bitset struct{ words []atomic.Uint64 }

func newBitset(n int) *bitset { return &bitset{words: make([]atomic.Uint64, (n+63)/64)} }

// set marks i and reports whether it was already marked (false when i is
// out of range, which the caller counts as an audit failure).
func (b *bitset) set(i uint64) (dup, ok bool) {
	w := i / 64
	if w >= uint64(len(b.words)) {
		return false, false
	}
	mask := uint64(1) << (i % 64)
	for {
		old := b.words[w].Load()
		if old&mask != 0 {
			return true, true
		}
		if b.words[w].CompareAndSwap(old, old|mask) {
			return false, true
		}
	}
}

// cpuStat is the host-wide CPU tick counters of /proc/stat that steal
// accounting needs.
type cpuStat struct{ steal, total float64 }

// readCPUStat reads the aggregate cpu line (zero when unavailable).
func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var c cpuStat
	for i, v := range f[1:9] { // guest time is already counted in user time
		x, _ := strconv.ParseFloat(v, 64)
		c.total += x
		if i == 7 {
			c.steal = x
		}
	}
	return c
}

// stealShare is the share of host CPU time the hypervisor stole between
// two readings: the noise a shared host adds to every timing.
func stealShare(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

// calmSteal is the most CPU the host may steal in any slice the
// end-to-end medians use.
const calmSteal = 0.25

// calmSlices picks the slices the end-to-end figures are taken over: the
// least-stolen half, in time order. A shared host steals CPU, in episodes
// and in a steady trickle that rises with the load; a stolen slice
// measures the neighbours, not the code.
func calmSlices(steal []float64) []int {
	idx := allIndices(len(steal))
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:(len(idx)+1)/2]
	sort.Ints(idx)
	return idx
}

// allIndices is every index of an n-slice series.
func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
