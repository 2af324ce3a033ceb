package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyondP90 is how many samples a run must leave above its p90:
// a percentile is reported only where at least ten samples lie beyond
// it.
const minBeyondP90 = 10

// latencyQuantiles returns the nearest-rank p50 and p90 of a run's
// request latencies. Failed or refused requests rank above every
// latency: they take the value failMS, the client timeout, so a failure
// always counts as missing any latency limit. It is an error when fewer
// than minBeyondP90 samples lie beyond the p90 rank.
func latencyQuantiles(okMS []float64, failed int, failMS float64) (p50, p90 float64, err error) {
	all := make([]float64, 0, len(okMS)+failed)
	all = append(all, okMS...)
	for i := 0; i < failed; i++ {
		all = append(all, failMS)
	}
	sort.Float64s(all)
	n := len(all)
	if n == 0 {
		return 0, 0, fmt.Errorf("no requests")
	}
	r90 := nearestRank(n, 0.90)
	if beyond := n - r90; beyond < minBeyondP90 {
		return 0, 0, fmt.Errorf("%d requests leave %d beyond p90, need %d", n, beyond, minBeyondP90)
	}
	return all[nearestRank(n, 0.50)-1], all[r90-1], nil
}

// nearestRank is the 1-based rank of the q-quantile among n sorted
// samples: ceil(q*n), clamped to [1, n].
func nearestRank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile is the nearest-rank q-quantile of unsorted samples, 0 when
// there are none. It does not enforce the p90 sample rule; it serves
// the per-layer breakdown.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[nearestRank(len(s), q)-1]
}

// median is the midpoint median of unsorted samples, 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean is the arithmetic mean, 0 when empty.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
