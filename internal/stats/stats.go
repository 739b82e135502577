// Package stats provides the small statistical toolkit the experiment
// harness uses to turn the paper's visual claims ("there appears to be a
// positive relationship", "a longer time window brings the metrics
// together") into measured numbers: correlation coefficients, quantiles,
// and summary records.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Pearson returns the Pearson correlation coefficient of the paired
// samples, and NaN if it is undefined (fewer than 2 points or zero
// variance).
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: length mismatch")
	}
	n := float64(len(xs))
	if n < 2 {
		return math.NaN()
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}

// ranks assigns average ranks (1-based) with tie handling.
func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	out := make([]float64, len(v))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// Spearman returns the Spearman rank correlation of the paired samples.
func Spearman(xs, ys []float64) float64 {
	return Pearson(ranks(xs), ranks(ys))
}

// Quantile returns the q-quantile (0<=q<=1) by linear interpolation of the
// sorted copy of v; NaN for empty input.
func Quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(v))
	copy(s, v)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Summary holds the five-number-plus summary of a sample.
type Summary struct {
	N                int
	Mean, Min, Max   float64
	P25, Median, P75 float64
}

// Summarize computes a Summary of v.
func Summarize(v []float64) Summary {
	s := Summary{N: len(v)}
	if len(v) == 0 {
		s.Mean, s.Min, s.Max = math.NaN(), math.NaN(), math.NaN()
		s.P25, s.Median, s.P75 = math.NaN(), math.NaN(), math.NaN()
		return s
	}
	var sum float64
	s.Min, s.Max = v[0], v[0]
	for _, x := range v {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(v))
	s.P25 = Quantile(v, 0.25)
	s.Median = Quantile(v, 0.5)
	s.P75 = Quantile(v, 0.75)
	return s
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g min=%.4g p25=%.4g med=%.4g p75=%.4g max=%.4g",
		s.N, s.Mean, s.Min, s.P25, s.Median, s.P75, s.Max)
}
