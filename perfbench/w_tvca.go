package main

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/mbta"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/tvca"
)

const (
	// tvcaRuns is the campaign size per platform: the smallest campaign
	// cmd/tvca accepts. The paper's 3,000 runs per platform cost about
	// 35 s of CPU here, longer than a whole timed phase.
	tvcaRuns = 500
	// tvcaSeed is cmd/tvca's default base seed (the paper's conference
	// date); DET uses tvcaSeed+1 as cmd/tvca does.
	tvcaSeed = 20170327
	// gumbelRelTol is how far the repository's pWCET(1e-12) may sit
	// from the independent fit: both use the same estimator on the same
	// maxima, so only floating-point summation order separates them.
	gumbelRelTol = 1e-9
)

// tvcaPaper is the case study as cmd/tvca runs it: TVCA on RAND and on
// DET, the i.i.d. gate, the Gumbel fit, the pWCET curve and the DET
// high-watermark-plus-margin baseline.
type tvcaPaper struct {
	tr     *tracer
	app    *tvca.App
	boards boardSet
	first  *tvcaOutcome
	diff   error
}

// tvcaOutcome is what one case-study operation produced.
type tvcaOutcome struct {
	randTimes []float64
	byPath    map[string][]float64
	iid       stats.IIDReport
	analysis  *core.Result
	curve     map[float64]float64
	detHWM    float64
	detMargin float64
}

// The case study is fixed at cmd/tvca's published seeds and takes
// nothing from the workload seed: any other series turns the 5% i.i.d.
// check into a per-seed lottery (see README.md).
func setupTVCA(e env) (instance, error) {
	app, err := tvca.New(tvca.DefaultConfig())
	if err != nil {
		return nil, err
	}
	t := &tvcaPaper{tr: e.tr, app: app, boards: boardSet{tr: e.tr}}
	// Warm-up: a short campaign on each board kind faults in the code
	// and heap the timed campaigns use.
	for _, cfg := range []platform.Config{platform.RAND(), platform.DET()} {
		if _, err := t.campaign(cfg, 20, 1); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *tvcaPaper) campaign(cfg platform.Config, runs int, seed uint64) (*platform.CampaignResult, error) {
	c, err := platform.StreamCampaign(context.Background(), cfg, t.app, platform.StreamOptions{
		MaxRuns:   runs,
		BatchSize: runs,
		Parallel:  1,
		BaseSeed:  seed,
		NewBoard:  t.boards.wrap(func() (platform.Board, error) { return platform.New(cfg) }),
	}, nil)
	t.boards.harvest()
	return c, err
}

func (t *tvcaPaper) round() []op {
	return []op{{name: "case-study", fn: t.caseStudy}}
}

func (t *tvcaPaper) caseStudy() (int, error) {
	randc, err := t.campaign(platform.RAND(), tvcaRuns, tvcaSeed)
	if err != nil {
		return 0, err
	}
	out := &tvcaOutcome{randTimes: randc.Times(), byPath: randc.TimesByPath(), curve: map[float64]float64{}}
	t0 := t.tr.now()
	if out.iid, err = stats.CheckIID(out.randTimes, 0.05); err != nil {
		return 0, err
	}
	t.tr.end("stats.iid", t0)
	t0 = t.tr.now()
	if out.analysis, err = core.NewAnalyzer(core.Options{}).AnalyzeByPath(out.byPath); err != nil {
		return 0, err
	}
	for _, q := range curveProbs {
		if out.curve[q], err = out.analysis.PWCET(q); err != nil {
			return 0, err
		}
	}
	t.tr.end("evt.fit", t0)
	detc, err := t.campaign(platform.DET(), tvcaRuns, tvcaSeed+1)
	if err != nil {
		return 0, err
	}
	base, err := mbta.Analyze(detc.Times())
	if err != nil {
		return 0, err
	}
	out.detHWM = base.HWM
	if out.detMargin, err = base.WCET(0.5); err != nil {
		return 0, err
	}
	if t.first == nil {
		t.first = out
	} else if err := sameOutcome(t.first, out); err != nil {
		t.diff = err
		return 0, fmt.Errorf("%w: %v", errWrong, err)
	}
	return len(randc.Results) + len(detc.Results), nil
}

// curveProbs samples the pWCET curve from the observable range down to
// the paper's deepest cutoff.
var curveProbs = []float64{1e-1, 3e-2, 1e-2, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-16}

// sameOutcome checks that a repeated operation reproduced the first one
// exactly (the platform contract: results are a pure function of the
// seeds).
func sameOutcome(a, b *tvcaOutcome) error {
	if len(a.randTimes) != len(b.randTimes) {
		return fmt.Errorf("run count %d != %d", len(b.randTimes), len(a.randTimes))
	}
	for i := range a.randTimes {
		if a.randTimes[i] != b.randTimes[i] {
			return fmt.Errorf("RAND run %d: %v cycles != %v", i, b.randTimes[i], a.randTimes[i])
		}
	}
	for q, v := range a.curve {
		if b.curve[q] != v {
			return fmt.Errorf("pWCET(%g) %v != %v", q, b.curve[q], v)
		}
	}
	if a.detHWM != b.detHWM {
		return fmt.Errorf("DET HWM %v != %v", b.detHWM, a.detHWM)
	}
	return nil
}

// verify checks the case study against properties of the method and an
// independent fit, not against stored output.
func (t *tvcaPaper) verify() error {
	o := t.first
	if o == nil {
		return fmt.Errorf("no case study completed")
	}
	if t.diff != nil {
		return t.diff
	}
	if o.iid.Independence.Rejected || o.iid.IdentDist.Rejected {
		return fmt.Errorf("RAND fails the i.i.d. gate at 5%%: Ljung-Box p=%.3f, KS p=%.3f",
			o.iid.Independence.PValue, o.iid.IdentDist.PValue)
	}
	// pWCET(p) must not decrease as p falls.
	probs := append([]float64(nil), curveProbs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(probs)))
	for i := 1; i < len(probs); i++ {
		if o.curve[probs[i]] < o.curve[probs[i-1]] {
			return fmt.Errorf("pWCET(%g)=%v < pWCET(%g)=%v", probs[i], o.curve[probs[i]], probs[i-1], o.curve[probs[i-1]])
		}
	}
	// It must upper-bound the empirical exceedance quantiles where at
	// least ten runs exceed them.
	n := len(o.randTimes)
	sorted := append([]float64(nil), o.randTimes...)
	sort.Float64s(sorted)
	for k := 10; k <= n/10; k += 5 {
		p := float64(k) / float64(n)
		emp := sorted[n-k] // exceeded (or equalled) by k runs
		bound, err := o.analysis.PWCET(p)
		if err != nil {
			return err
		}
		if bound < emp {
			return fmt.Errorf("pWCET(%g)=%.0f below the empirical quantile %.0f", p, bound, emp)
		}
	}
	// pWCET(1e-12) must agree with the independent fit.
	own, err := pwcetByPath(o.byPath, 1e-12, o.analysis.BlockSize)
	if err != nil {
		return err
	}
	if got := o.curve[1e-12]; math.Abs(got-own) > gumbelRelTol*own {
		return fmt.Errorf("pWCET(1e-12)=%v, independent Gumbel fit %v", got, own)
	}
	if o.detMargin <= o.detHWM {
		return fmt.Errorf("DET HWM+50%% %v not above HWM %v", o.detMargin, o.detHWM)
	}
	return nil
}

func (t *tvcaPaper) close() error { return nil }
