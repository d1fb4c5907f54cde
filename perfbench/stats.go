package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailSamples = 10

// tail returns the highest percentile of xs that has at least
// tailSamples samples beyond it, in tenths of a percent resolution
// (pct = 99.0 for 1000 samples, 96.6 for 300), and the nearest-rank
// value at that percentile. ok is false when there are too few samples
// for any tail (n <= tailSamples). +Inf samples (failed requests) sort
// last, so they push the tail up rather than vanish.
func tail(xs []float64) (pct, v float64, ok bool) {
	n := len(xs)
	if n <= tailSamples {
		return 0, 0, false
	}
	// Integer arithmetic keeps the "at least tailSamples beyond" rule
	// exact: tenths = floor(1000(n-10)/n), rank = ceil(tenths*n/1000).
	tenths := 1000 * (n - tailSamples) / n
	rank := (tenths*n + 999) / 1000
	s := sortedCopy(xs)
	return float64(tenths) / 10, s[rank-1], true
}

// summary is a timing distribution as the benchmark reports it: the
// median, the highest supported tail percentile, and the sample count.
type summary struct {
	N       int
	P50     float64
	TailPct float64
	Tail    float64
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs), P50: median(xs)}
	if pct, v, ok := tail(xs); ok {
		s.TailPct, s.Tail = pct, v
	} else {
		s.Tail = math.Inf(1)
		if len(xs) > 0 {
			s.Tail = sortedCopy(xs)[len(xs)-1]
		}
	}
	return s
}
