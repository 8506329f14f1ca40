package main

import (
	"runtime"
	"sort"
)

// Percentiles are given in per-mille so the rank arithmetic stays in
// integers: 0.99*100 is 99.00000000000001 in floating point, and a ceil
// over that would shift the rank by one.
const (
	p50 = 500
	p90 = 900
	p99 = 990
)

// minBeyond is the fewest samples that must lie above a reported
// percentile; with fewer, the number is one outlier's latency, not a
// percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank position of a per-mille percentile in a
// sample of n: the smallest rank with at least that share of the sample at
// or below it.
func rank(n, permille int) int {
	r := (n*permille + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// nearestRank returns the per-mille percentile of an ascending sample.
func nearestRank(sorted []int64, permille int) int64 {
	return sorted[rank(len(sorted), permille)-1]
}

// tailResolved reports whether a sample of n has at least minBeyond values
// above the per-mille percentile.
func tailResolved(n, permille int) bool {
	return n-rank(n, permille) >= minBeyond
}

// median of an unsorted sample (mean of the middle two when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mallocs is the process-wide count of heap objects allocated so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeap forces collection and returns the bytes still reachable. Two
// cycles, because sync.Pool contents survive the first one in the victim
// cache.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
