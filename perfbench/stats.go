package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// tail percentile: a tail read off fewer samples is one outlier's value.
const minBeyond = 10

// tailLevel returns the highest whole percentile q for which at least
// minBeyond of n samples lie above the nearest-rank q-th percentile, and
// false when n is too small for any (n <= minBeyond).
func tailLevel(n int) (int, bool) {
	if n <= minBeyond {
		return 0, false
	}
	// Nearest rank of q is ceil(q·n/100); it must be at most n-minBeyond.
	q := 100 * (n - minBeyond) / n
	for q > 0 && rank(q, n) > n-minBeyond {
		q--
	}
	return q, q > 0
}

// rank is the 1-based nearest rank of the q-th percentile of n samples.
func rank(q, n int) int {
	r := (q*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank q-th percentile of xs (sorted in
// place). It errors when fewer than minBeyond samples would lie above
// it, so a reported tail always rests on at least ten samples.
func percentile(xs []float64, q int) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if q > 50 {
		if max, ok := tailLevel(n); !ok || q > max {
			return 0, fmt.Errorf("p%d needs %d samples beyond it; %d samples allow at most p%d", q, minBeyond, n, max)
		}
	}
	sort.Float64s(xs)
	return xs[rank(q, n)-1], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
