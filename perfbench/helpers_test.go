package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		p     float64
		value float64
		ok    bool
	}{
		{n: 1},
		{n: 39},
		{n: 40, p: 0.75, value: 30, ok: true},
		{n: 99, p: 0.75, value: 75, ok: true},
		{n: 100, p: 0.9, value: 90, ok: true},
		{n: 999, p: 0.9, value: 900, ok: true},
		{n: 1000, p: 0.99, value: 990, ok: true},
	}
	for _, c := range cases {
		p, v, ok := tailPercentile(seq(c.n))
		if ok != c.ok || p != c.p || v != c.value {
			t.Errorf("n=%d: got (p=%v, v=%v, ok=%v), want (p=%v, v=%v, ok=%v)", c.n, p, v, ok, c.p, c.value, c.ok)
		}
	}
	for n := 40; n <= 2000; n += 7 {
		xs := seq(n)
		_, v, ok := tailPercentile(xs)
		if !ok {
			t.Fatalf("n=%d: no percentile", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond the reported percentile %v", n, beyond, v)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

var sinkBytes []byte

func TestUsageDelta(t *testing.T) {
	u0 := readUsage()
	sinkBytes = make([]byte, 4<<20)
	spin := time.Now()
	x := 1.0
	for time.Since(spin) < 60*time.Millisecond {
		x = math.Sqrt(x + 1)
	}
	d := readUsage().sub(u0)
	if d.alloc < 4<<20 {
		t.Errorf("alloc delta %d bytes, want >= %d", d.alloc, 4<<20)
	}
	if d.wall < 60*time.Millisecond {
		t.Errorf("wall delta %v, want >= 60ms", d.wall)
	}
	// The spin runs on one thread; rusage ticks are coarse, so allow
	// a wide margin below the wall time but require real CPU.
	if d.cpu < 20*time.Millisecond {
		t.Errorf("cpu delta %v after a 60ms spin", d.cpu)
	}
	if x == 0 {
		t.Fatal("unreachable")
	}
	want := delta{wall: time.Second, cpu: 2 * time.Second, alloc: 5}
	a := usage{wall: time.Unix(10, 0), cpu: time.Second, alloc: 7}
	b := usage{wall: time.Unix(11, 0), cpu: 3 * time.Second, alloc: 12}
	if got := b.sub(a); got != want {
		t.Errorf("sub = %+v, want %+v", got, want)
	}
}

// For the two-point sample {0, 1}: b0 = 1/2, b1 = 1/2, so
// beta = (2 b1 - b0)/ln 2 = 1/(2 ln 2) and mu = 1/2 - gamma beta.
func TestGumbelPWMClosedForm(t *testing.T) {
	g, err := fitGumbelPWM([]float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	beta := 1 / (2 * math.Ln2)
	mu := 0.5 - eulerGamma*beta
	if math.Abs(g.beta-beta) > 1e-15 || math.Abs(g.mu-mu) > 1e-15 {
		t.Errorf("fit = %+v, want mu=%v beta=%v", g, mu, beta)
	}
	// Block size 1: the per-run quantile is the Gumbel quantile, and at
	// q = 1 - exp(-1) the reduced variate -ln(-ln(1-q)) is 0.
	if got := g.perRunQuantile(-math.Expm1(-1), 1); math.Abs(got-mu) > 1e-12 {
		t.Errorf("quantile at the location = %v, want %v", got, mu)
	}
}

func TestGumbelPWMAffine(t *testing.T) {
	xs := []float64{3, 9, 4, 12, 5, 7, 6, 20, 8, 5}
	g, err := fitGumbelPWM(xs)
	if err != nil {
		t.Fatal(err)
	}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 4*x + 1000
	}
	h, err := fitGumbelPWM(ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.mu-(4*g.mu+1000)) > 1e-9 || math.Abs(h.beta-4*g.beta) > 1e-9 {
		t.Errorf("affine fit %+v, want mu=%v beta=%v", h, 4*g.mu+1000, 4*g.beta)
	}
	if _, err := fitGumbelPWM([]float64{5, 5, 5}); err == nil {
		t.Error("constant maxima fitted")
	}
}

func TestBlockMaximaAndPooling(t *testing.T) {
	got := blockMaxima([]float64{1, 5, 2, 7, 3, 9, 4}, 2)
	want := []float64{5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("maxima %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("maxima %v, want %v", got, want)
		}
	}
	// One path too small to fit on its own is kept as a floor under the
	// bound when the other path is large enough.
	big := make([]float64, 50)
	for i := range big {
		big[i] = float64(100 + i%7)
	}
	q, err := pwcetByPath(map[string][]float64{"a": big, "b": {1e6}}, 1e-12, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q != 1e6 {
		t.Errorf("bound %v ignores the small path's high-watermark 1e6", q)
	}
}
