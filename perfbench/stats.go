package main

import (
	"math"
	"sort"
	"time"
)

// R0 is the reference-kernel time, in milliseconds, of the nominal host
// every drift-corrected figure is expressed on: an interval of raw
// length t measured while the kernel ran in R ms is reported as
// t·R0/R. It is fixed with the kernel; changing either resets the
// baseline.
const R0 = 2.0

// correct scales a raw interval by R0 over the mean of the reference
// kernel timed immediately before (r0) and after (r1) it, returning
// milliseconds on the nominal host.
func correct(raw, r0, r1 time.Duration) float64 {
	r := (ms(r0) + ms(r1)) / 2
	if r <= 0 {
		return ms(raw)
	}
	return ms(raw) * R0 / r
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the order statistics at rank q·(n-1) (numpy's
// default). xs is not modified. NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// percentileOK reports whether a run of n samples has at least minBeyond
// samples strictly above the q-quantile's rank, the rule for reporting
// a tail percentile at all.
func percentileOK(n int, q float64, minBeyond int) bool {
	return float64(n)*(1-q) >= float64(minBeyond)-1e-9
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), which is how the benchmark's spreads are judged.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of xs as a share of its median
// (quartiles as in Python's statistics.quantiles, median as the middle
// order statistic).
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
