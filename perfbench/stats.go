package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of a sorted
// sample: the smallest value with at least q·n values at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// tailPercentiles are the candidates for a sample's reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile in tailPercentiles that has
// at least ten samples strictly beyond its nearest rank, so a tail is
// never reported from a handful of points. It returns the percentile (0
// when even the median does not qualify), its value and the number of
// samples beyond it.
func tailPercentile(sorted []float64) (pct, value float64, beyond int) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n)))
		rank = min(max(rank, 1), n)
		if n-rank >= 10 {
			return p, sorted[rank-1], n - rank
		}
	}
	return 0, 0, 0
}

// pctName names a percentile as a metric suffix: 99 → "p99", 99.9 → "p999".
func pctName(p float64) string {
	if p == math.Trunc(p) {
		return fmt.Sprintf("p%d", int(p))
	}
	return fmt.Sprintf("p%d", int(math.Round(p*10)))
}

// latencySummary is one request kind's latencies from one window.
type latencySummary struct {
	N       int     `json:"n"`
	MeanMs  float64 `json:"mean_ms"`
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"` // nearest-rank p99 (max when n < 100)
	TailPct float64 `json:"tail_pct"`
	TailMs  float64 `json:"tail_ms"`
	Beyond  int     `json:"tail_beyond"`
}

func summarize(ds []time.Duration) latencySummary {
	if len(ds) == 0 {
		return latencySummary{}
	}
	ms := sortedMs(ds)
	s := latencySummary{N: len(ms), MeanMs: mean(ms), P50Ms: percentile(ms, 0.50), P99Ms: percentile(ms, 0.99)}
	s.TailPct, s.TailMs, s.Beyond = tailPercentile(ms)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sortedMs converts durations to sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return ms
}
