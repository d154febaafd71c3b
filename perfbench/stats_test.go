package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}, {0.25, 3.25},
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9.0, 4.75}, 1.8125, 7.9375},
		{[]float64{10, 11}, 9.75, 11.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestPercentileOK(t *testing.T) {
	if !percentileOK(100, 0.9, 10) || percentileOK(99, 0.9, 10) {
		t.Error("p90 needs exactly 100 samples for ten beyond it")
	}
	if !percentileOK(20, 0.5, 10) || percentileOK(19, 0.5, 10) {
		t.Error("p50 needs 20 samples for ten beyond it")
	}
}

func TestCorrect(t *testing.T) {
	r0 := time.Duration(R0 * float64(time.Millisecond))
	// A host running at R0 leaves the interval unchanged.
	if got := correct(40*time.Millisecond, r0, r0); !near(got, 40) {
		t.Errorf("at R0: %v ms, want 40", got)
	}
	// A host at half speed (kernel twice as slow) halves it; the
	// before/after timings are averaged.
	if got := correct(80*time.Millisecond, r0, 3*r0); !near(got, 40) {
		t.Errorf("at half speed: %v ms, want 40", got)
	}
	if got := correct(80*time.Millisecond, 2*r0, 2*r0); !near(got, 40) {
		t.Errorf("at half speed: %v ms, want 40", got)
	}
	// Drift that slows the op and the kernel alike cancels exactly.
	for _, slow := range []float64{0.8, 1, 1.3, 2.5} {
		raw := time.Duration(25 * slow * float64(time.Millisecond))
		r := time.Duration(R0 * slow * float64(time.Millisecond))
		if got := correct(raw, r, r); !near(got, 25) {
			t.Errorf("slowdown %v: %v ms, want 25", slow, got)
		}
	}
}
