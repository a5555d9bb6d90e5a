package main

import (
	"strings"
	"testing"
)

func TestTailLevel(t *testing.T) {
	for _, tc := range []struct {
		n, want int
		ok      bool
	}{
		{0, 0, false},
		{10, 0, false},
		{11, 9, true},
		{20, 50, true},
		{100, 90, true},
		{109, 90, true},
		{112, 91, true},
		{120, 91, true},
		{1000, 99, true},
	} {
		got, ok := tailLevel(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailLevel(%d) = %d, %v; want %d, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if !ok {
			continue
		}
		// The defining property: at least ten samples beyond level q,
		// fewer than ten beyond level q+1.
		if beyond := tc.n - rank(got, tc.n); beyond < minBeyond {
			t.Errorf("n=%d: p%d has %d samples beyond it", tc.n, got, beyond)
		}
		if got < 99 {
			if beyond := tc.n - rank(got+1, tc.n); beyond >= minBeyond {
				t.Errorf("n=%d: p%d also has %d samples beyond it", tc.n, got+1, beyond)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for q, want := range map[int]float64{50: 50, 90: 90, 1: 1} {
		got, err := percentile(append([]float64(nil), xs...), q)
		if err != nil || got != want {
			t.Errorf("p%d of 1..100 = %v, %v; want %v", q, got, err, want)
		}
	}
	// 100 samples leave only nine beyond p91: refused, with the count.
	_, err := percentile(xs, 91)
	if err == nil || !strings.Contains(err.Error(), "100 samples allow at most p90") {
		t.Errorf("p91 of 100 samples: err = %v; want a refusal naming the sample count", err)
	}
	if _, err := percentile(xs[:50], 90); err == nil {
		t.Error("p90 of 50 samples: want an error")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
}
