package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the percentile rule: a reported percentile must have at least
// this many samples strictly beyond it, or it is not reported at all.
const minTail = 10

// percentile returns the Harrell–Davis estimate of the p-quantile of
// values (0 < p < 1): a Beta-weighted average of all order statistics,
// concentrated around rank p·(n+1). Unlike a nearest-rank pick it moves
// smoothly when samples cluster — the simulation's virtual times come in
// near-identical groups, where a rank landing on a gap between two groups
// would otherwise flip between them from one seed to the next.
//
// It refuses to answer when fewer than minTail samples lie beyond the
// nominal rank ⌈p·n⌉, so a "p99" from 200 samples cannot masquerade as a
// tail.
func percentile(values []float64, p float64) (float64, error) {
	n := len(values)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g: no samples", 100*p)
	}
	if beyond := n - int(math.Ceil(p*float64(n))); beyond < minTail {
		return 0, fmt.Errorf("percentile p%g: %d samples leave %d beyond it, need %d", 100*p, n, beyond, minTail)
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	var q float64
	prev := 0.0
	for i, x := range s {
		cdf := betaInc(a, b, float64(i+1)/float64(n))
		q += (cdf - prev) * x
		prev = cdf
	}
	return q, nil
}

// betaInc is the regularized incomplete beta function I_x(a, b), evaluated
// by its continued fraction (modified Lentz).
func betaInc(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log1p(-x) + lab - la - lb)
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(a, b, x) / a
	}
	return 1 - front*betaFrac(b, a, 1-x)/b
}

func betaFrac(a, b, x float64) float64 {
	const (
		maxIter = 10000
		eps     = 1e-15
		tiny    = 1e-300
	)
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		num := fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// minSamples is the smallest sample count for which percentile(·, p)
// answers.
func minSamples(p float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(p*float64(n))) >= minTail {
			return n
		}
	}
}

// median is the plain middle value (no tail rule: used for repeated
// measurements of one quantity, such as set-up time).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// interval is a closed-open wall-time span [lo, hi) in nanoseconds since the
// recorder's base instant.
type interval struct{ lo, hi int64 }

// unionLength is the total length covered by the intervals, counting any
// overlap once: parallel fragment calls add their union, not their sum. The
// slice is sorted in place.
func unionLength(iv []interval) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total int64
	var curLo, curHi int64
	open := false
	for _, x := range iv {
		if x.hi <= x.lo {
			continue
		}
		if !open || x.lo > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = x.lo, x.hi, true
			continue
		}
		if x.hi > curHi {
			curHi = x.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// clip returns the parts of the intervals that fall inside [lo, hi).
func clip(iv []interval, lo, hi int64) []interval {
	var out []interval
	for _, x := range iv {
		a, b := max(x.lo, lo), min(x.hi, hi)
		if b > a {
			out = append(out, interval{a, b})
		}
	}
	return out
}

// selfTime is the part of [lo, hi) that no child interval covers: the
// window's length minus the union of the children clipped to it.
func selfTime(lo, hi int64, children []interval) int64 {
	if hi <= lo {
		return 0
	}
	return (hi - lo) - unionLength(clip(children, lo, hi))
}

// ratio is a quotient that always travels with its base, so no ratio is
// printed without the counts it was computed from.
type ratio struct {
	num, den float64
}

// value is num/den, or 0 for an empty base.
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4g (%s/%s)", r.value(), countString(r.num), countString(r.den))
}

// countString prints whole counts without a fraction and anything else with
// four significant digits.
func countString(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.4g", x)
}
