package bench

import (
	"fmt"
	"math"
	"slices"
)

// MinSamples returns how many samples the p-th percentile needs so that at
// least ten samples lie beyond it: a percentile with fewer behind it is not
// a tail but one or two unlucky operations. The median needs one sample.
func MinSamples(p float64) int {
	if p <= 50 {
		return 1
	}
	return int(math.Ceil(1000/(100-p) - 1e-9))
}

// Percentile returns the nearest-rank p-th percentile of xs (the smallest
// sample with at least p% of the samples at or below it). It fails when xs
// has fewer than MinSamples(p) samples.
func Percentile(xs []float64, p float64) (float64, error) {
	if n := MinSamples(p); len(xs) < n {
		return 0, fmt.Errorf("percentile p%g needs %d samples, have %d", p, n, len(xs))
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1], nil
}

// Median returns the median of xs (the mean of the middle two for an even
// count), or 0 for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartiles of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4) — the rule the spread of
// repeated runs is judged by. It needs at least two samples.
func Quartiles(xs []float64) (q1, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", len(xs))
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3), nil
}

// Geomean returns the geometric mean of xs, the average the paper's figures
// and the harness's class-average rows use for normalised IPCs.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// PaperErrPP returns the mean absolute difference, in percentage points,
// between measured class-average normalised IPCs and the paper's values for
// the same cells. Every paper cell must be measured.
func PaperErrPP(measured, paper map[string]float64) (float64, error) {
	if len(paper) == 0 {
		return 0, fmt.Errorf("paper_err_pp: no reference values")
	}
	keys := make([]string, 0, len(paper))
	for k := range paper {
		keys = append(keys, k)
	}
	slices.Sort(keys) // a fixed summation order gives the same last digit every run
	var sum float64
	for _, k := range keys {
		want := paper[k]
		got, ok := measured[k]
		if !ok {
			return 0, fmt.Errorf("paper_err_pp: cell %q not measured", k)
		}
		sum += math.Abs(got-want) * 100
	}
	return sum / float64(len(paper)), nil
}
