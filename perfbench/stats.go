package main

import (
	"math"
	"sort"
	"time"
)

// sample is one completed operation of the timed window.
type sample struct {
	name string        // statement name ("Q1", "Q1/hint", "lookup.orders.2", ...)
	lat  time.Duration // from send (or due time, for the open-loop writer) to reply
}

// durMS converts a duration to float milliseconds.
func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedMS returns the latencies of samples in milliseconds, ascending.
func sortedMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = durMS(s.lat)
	}
	sort.Float64s(out)
	return out
}

// median of an ascending slice (mean of the middle pair for even n).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tailBeyond is how many samples must lie above the reported tail value.
const tailBeyond = 10

// tail returns the highest-percentile value that still has tailBeyond
// samples above it, and that percentile. With fewer than tailBeyond+1
// samples it falls back to the maximum.
func tail(sorted []float64) (value, pct float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	i := n - 1 - tailBeyond
	if i < 0 {
		return sorted[n-1], 100
	}
	return sorted[i], 100 * float64(i+1) / float64(n)
}

// geomeanOfMedians is the geometric mean over distinct statement names of
// each name's median latency (ms): the TPC-H "power" summary.
func geomeanOfMedians(samples []sample) (float64, int) {
	by := map[string][]float64{}
	for _, s := range samples {
		by[s.name] = append(by[s.name], durMS(s.lat))
	}
	if len(by) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, v := range by {
		sort.Float64s(v)
		sum += math.Log(math.Max(median(v), 1e-6))
	}
	return math.Exp(sum / float64(len(by))), len(by)
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) with its
// default "exclusive" method, so the steadiness report computes spreads the
// same way an outside check would.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
