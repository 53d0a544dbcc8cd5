package main

import (
	"sort"
	"time"
)

// sample is one completed operation of a timed phase.
type sample struct {
	began time.Time     // when the operation's public call started
	lat   time.Duration // latency of the operation's public call(s)
	end   time.Duration // completion time since the phase started
	bytes int64         // useful bytes the caller asked for

	// Churn only: the Remove that follows the Create.
	began2 time.Time
	lat2   time.Duration
}

// median returns the middle value of xs (mean of the two middle values
// for even lengths), 0 when empty. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// medianUS returns the median of the durations in microseconds.
func medianUS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d.Nanoseconds()) / 1e3
	}
	return median(xs)
}

// tailUS returns, in microseconds, the highest percentile of ds that
// still has at least ten samples beyond it: the 99th when there are a
// thousand samples or more, a lower one otherwise, and 0 with fewer than
// twenty samples, where no tail can be stated.
func tailUS(ds []time.Duration) float64 {
	n := len(ds)
	if n < 20 {
		return 0
	}
	xs := make([]float64, n)
	for i, d := range ds {
		xs[i] = float64(d.Nanoseconds()) / 1e3
	}
	sort.Float64s(xs)
	idx := n - 11 // ten samples lie beyond it
	if p99 := n * 99 / 100; p99 < idx {
		idx = p99
	}
	return xs[idx]
}
