package main

import (
	"errors"
	"math"
	"sort"
)

// eulerGamma is the Euler-Mascheroni constant (the Gumbel mean offset).
const eulerGamma = 0.5772156649015329

// gumbelFit is a Gumbel (location mu, scale beta) fitted here, apart
// from the repository's evt package, by probability-weighted moments:
// with b0 the sample mean and b1 = (1/n) sum_i (i-1)/(n-1) x_(i) over
// the ascending order statistics, beta = (2 b1 - b0) / ln 2 and
// mu = b0 - gamma beta. These are the textbook closed forms, so a bug
// in the repository's fitter cannot hide in the cross-check.
type gumbelFit struct{ mu, beta float64 }

func fitGumbelPWM(maxima []float64) (gumbelFit, error) {
	n := len(maxima)
	if n < 2 {
		return gumbelFit{}, errors.New("gumbel: need at least two maxima")
	}
	s := append([]float64(nil), maxima...)
	sort.Float64s(s)
	var b0, b1 float64
	for i, x := range s {
		b0 += x
		b1 += float64(i) / float64(n-1) * x
	}
	b0 /= float64(n)
	b1 /= float64(n)
	beta := (2*b1 - b0) / math.Ln2
	if !(beta > 0) {
		return gumbelFit{}, errors.New("gumbel: degenerate maxima (non-positive scale)")
	}
	return gumbelFit{mu: b0 - eulerGamma*beta, beta: beta}, nil
}

// perRunQuantile converts the block-maximum fit into the per-run
// execution time exceeded with probability q: with blocks of b runs,
// F_block(x) = (1-q)^b, so x = mu - beta ln(-b ln(1-q)).
func (g gumbelFit) perRunQuantile(q float64, b int) float64 {
	return g.mu - g.beta*math.Log(-float64(b)*math.Log1p(-q))
}

// blockMaxima returns the maxima of consecutive blocks of b samples,
// dropping a partial final block.
func blockMaxima(xs []float64, b int) []float64 {
	out := make([]float64, 0, len(xs)/b)
	for i := 0; i+b <= len(xs); i += b {
		m := xs[i]
		for _, x := range xs[i+1 : i+b] {
			m = math.Max(m, x)
		}
		out = append(out, m)
	}
	return out
}

// pwcetByPath is the MBPTA bound over a per-path series: each path with
// at least 5 blocks is fitted on its own, smaller paths are pooled (in
// path-name order) when the pool is large enough, and the bound is the
// largest per-path quantile. It mirrors the method the paper describes,
// computed independently of the repository's analyzer.
func pwcetByPath(byPath map[string][]float64, q float64, b int) (float64, error) {
	names := make([]string, 0, len(byPath))
	for p := range byPath {
		names = append(names, p)
	}
	sort.Strings(names)
	var groups [][]float64
	var pooled []float64
	small := math.Inf(-1)
	for _, p := range names {
		xs := byPath[p]
		if len(xs) >= 5*b {
			groups = append(groups, xs)
			continue
		}
		pooled = append(pooled, xs...)
		for _, x := range xs {
			small = math.Max(small, x)
		}
	}
	if len(pooled) > 0 && (len(groups) == 0 || len(pooled) >= 5*b) {
		groups = append(groups, pooled)
		small = math.Inf(-1)
	}
	best := small
	for _, xs := range groups {
		fit, err := fitGumbelPWM(blockMaxima(xs, b))
		if err != nil {
			return 0, err
		}
		best = math.Max(best, fit.perRunQuantile(q, b))
	}
	if math.IsInf(best, -1) {
		return 0, errors.New("gumbel: no analyzable path")
	}
	return best, nil
}
