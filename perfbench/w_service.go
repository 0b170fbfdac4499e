package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/evt"
	"repro/internal/fabric"
	"repro/internal/kernels"
	"repro/internal/platform"
	"repro/internal/pwcetd"
	"repro/internal/stats"
	"repro/pkg/mbpta"
)

const (
	serviceRuns  = 300
	serviceBatch = 100
	// pollInterval is far below a campaign's latency (tenths of a
	// second), so polling adds little to the measured latency.
	pollInterval = 2 * time.Millisecond
	// serviceQ is the quantile the client asks for.
	serviceQ = 1e-12
)

// service runs pwcetd in process behind a loopback listener, on a
// fabric pool with one in-process executor, and one client that submits
// a repeating cycle of small RAND campaigns over HTTP.
type service struct {
	tr     *tracer
	specs  []mbpta.CampaignSpec
	pool   *fabric.Pool
	srv    *pwcetd.Server
	http   *http.Server
	served chan error
	client *mbpta.ServiceClient
	fps    map[int]string // first fingerprint of each spec in the cycle
	diff   error
	// mx is the warm matrix pass a traced run probes between rounds,
	// on a tracer of its own (nil when untraced).
	mx *matrixRerun
}

func serviceSpecs(seed uint64) []mbpta.CampaignSpec {
	params := func(v any) json.RawMessage {
		b, _ := json.Marshal(v)
		return b
	}
	crc := mbpta.WorkloadSpec{Kind: "crc32", Params: params(kernels.CRC32{Bytes: 1024, Seed: seed})}
	isort := mbpta.WorkloadSpec{Kind: "isort", Params: params(kernels.InsertionSort{N: 64, Seed: seed + 1})}
	matmul := mbpta.WorkloadSpec{Kind: "matmul", Params: params(kernels.MatMul{N: 8, Seed: seed + 2})}
	base := func(w mbpta.WorkloadSpec, k uint64) mbpta.CampaignSpec {
		return mbpta.CampaignSpec{Platform: "RAND", Workload: w, Runs: serviceRuns, Batch: serviceBatch, BaseSeed: seed*8 + k}
	}
	gated := base(crc, 4)
	gated.QuantileGate = true
	faulty := base(isort, 5)
	faulty.FaultRate, faulty.Mitigation = 0.3, "ecc"
	return []mbpta.CampaignSpec{base(crc, 1), base(isort, 2), base(matmul, 3), gated, faulty}
}

func setupService(e env) (instance, error) {
	pool := fabric.NewPool(fabric.Config{Executors: 1})
	srv, err := pwcetd.New(pwcetd.Config{Pool: pool})
	if err != nil {
		pool.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		pool.Close()
		return nil, err
	}
	s := &service{
		tr:     e.tr,
		specs:  serviceSpecs(e.seed),
		pool:   pool,
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		fps:    map[int]string{},
	}
	go func() { s.served <- s.http.Serve(ln) }()
	s.client = mbpta.NewServiceClient("http://"+ln.Addr().String(), &http.Client{Timeout: time.Minute})
	// Warm-up: one campaign of each spec through the whole path.
	for _, spec := range s.specs {
		if _, err := s.submit(spec); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up campaign: %w", err)
		}
	}
	if e.tr != nil {
		in, err := setupMatrix(env{seed: e.seed, dir: e.dir, tr: newTracer()})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("matrix probe: %w", err)
		}
		s.mx = in.(*matrixRerun)
	}
	return s, nil
}

func (s *service) round() []op {
	ops := make([]op, len(s.specs))
	for i := range s.specs {
		i := i
		ops[i] = op{name: "campaign-" + strconv.Itoa(i), fn: func() (int, error) { return s.campaign(i) }}
	}
	return ops
}

// submit runs one campaign through the HTTP API: submit, poll until it
// leaves "running", fetch the report and one pWCET answer.
func (s *service) submit(spec mbpta.CampaignSpec) (mbpta.ServiceReport, error) {
	ctx := context.Background()
	tr := s.tr
	t0 := tr.now()
	id, err := s.client.Submit(ctx, spec)
	tr.end("pwcetd.submit", t0)
	if err != nil {
		return mbpta.ServiceReport{}, err
	}
	t0 = tr.now()
	for {
		st, err := s.client.Status(ctx, id)
		tr.count("pwcetd.polls", 1)
		if err != nil {
			return mbpta.ServiceReport{}, err
		}
		if st.State != "running" {
			break
		}
		time.Sleep(pollInterval)
	}
	tr.end("pwcetd.wait", t0)
	t0 = tr.now()
	defer tr.end("pwcetd.report", t0)
	rep, err := s.client.Report(ctx, id)
	if err != nil {
		return rep, err
	}
	if rep.State != "done" {
		return rep, fmt.Errorf("campaign %s ended %s: %s", id, rep.State, rep.Error)
	}
	want, analyzed := rep.PWCET[strconv.FormatFloat(serviceQ, 'e', -1, 64)]
	got, err := s.client.PWCET(ctx, id, serviceQ)
	switch {
	case analyzed && err != nil:
		return rep, err
	case analyzed && got != want:
		return rep, fmt.Errorf("%w: pwcet?q=%g answers %v, the report says %v", errWrong, serviceQ, got, want)
	case !analyzed && err == nil:
		return rep, fmt.Errorf("%w: pwcet?q=%g answers %v for a report without that entry", errWrong, serviceQ, got)
	}
	if spec.FaultRate > 0 {
		// Clean runs include the mitigated ones, which stay in the
		// analyzed series; clean plus quarantined is every run.
		sum, mitigated := rep.FaultClean, 0
		for _, n := range rep.FaultQuarantined {
			sum += n
		}
		for _, n := range rep.FaultMitigated {
			mitigated += n
		}
		if sum != rep.RunsDone || mitigated > rep.FaultClean {
			return rep, fmt.Errorf("%w: %d clean (%d mitigated) + quarantined = %d of %d runs",
				errWrong, rep.FaultClean, mitigated, sum, rep.RunsDone)
		}
	}
	return rep, nil
}

func (s *service) campaign(i int) (int, error) {
	spec := s.specs[i]
	t0 := s.tr.now()
	rep, err := s.submit(spec)
	if err != nil {
		return 0, err
	}
	if spec.FaultRate > 0 {
		s.tr.end("pwcetd.fault_campaign", t0)
		s.tr.count("pwcetd.fault_campaigns", 1)
	}
	if fp, ok := s.fps[i]; !ok {
		s.fps[i] = rep.Fingerprint
	} else if fp != rep.Fingerprint {
		s.diff = fmt.Errorf("spec %d: fingerprint %.12s, earlier %.12s", i, rep.Fingerprint, fp)
		return 0, fmt.Errorf("%w: %v", errWrong, s.diff)
	}
	return rep.RunsDone, nil
}

// afterRound probes, in traced runs and outside the timed operations,
// every pool-schedulable spec of the cycle and one warm pass of the
// matrix-rerun workload's cached matrix, whose journal and run-cache
// layers the service's campaigns do not reach. Only the pass's wal and
// matrix spans are kept, so the analyzer and fingerprint metrics stay
// those of the service's specs.
func (s *service) afterRound() error {
	if s.tr == nil {
		return nil
	}
	for _, spec := range s.specs {
		if spec.FaultRate == 0 {
			if err := s.probe(spec); err != nil {
				return err
			}
		}
	}
	if _, err := s.mx.tracedPass(); err != nil {
		return fmt.Errorf("matrix probe: %w", err)
	}
	s.tr.absorb(s.mx.tr, "wal.", "matrix.")
	s.mx.tr.reset()
	return nil
}

// probe runs spec again outside pwcetd, through the layers the service
// calls for it: once through the fabric pool and once through the local
// campaign loop. The difference of the two campaign times is the lease
// overhead. The analyzer, the report fingerprint and the statistical
// layers are timed on the local run only, so they count once per spec.
func (s *service) probe(spec mbpta.CampaignSpec) error {
	cfg, err := fabric.NamedPlatform(spec.Platform)
	if err != nil {
		return err
	}
	w, err := fabric.BuiltinRegistry().Build(spec.Workload)
	if err != nil {
		return err
	}
	for _, viaPool := range []bool{true, false} {
		name, tr := "fabric.local_campaign", s.tr
		if viaPool {
			name, tr = "fabric.pool_campaign", nil
		}
		rule := core.FixedRuns(spec.Runs)
		online := core.NewOnlineAnalyzer(core.Options{QuantileGate: spec.QuantileGate, QuantileGateAlpha: spec.QuantileAlpha}, rule)
		boards := boardSet{tr: tr}
		var leases atomic.Int64
		so := platform.StreamOptions{
			MaxRuns:   spec.Runs,
			BatchSize: spec.Batch,
			Parallel:  1,
			BaseSeed:  spec.BaseSeed,
			NewBoard: boards.wrap(func() (platform.Board, error) {
				leases.Add(1) // the pool builds one board per lease
				return platform.New(cfg)
			}),
		}
		t0 := s.tr.now()
		var camp *platform.CampaignResult
		if viaPool {
			camp, err = s.pool.StreamCampaign(context.Background(), cfg, w, so, analyzerSink(tr, online))
		} else {
			camp, err = platform.StreamCampaign(context.Background(), cfg, w, so, analyzerSink(tr, online))
		}
		if err != nil {
			return fmt.Errorf("%s probe: %w", name, err)
		}
		finishReport(tr, camp, online, rule)
		s.tr.end(name, t0)
		s.tr.count(name+"s", 1)
		if viaPool {
			s.tr.count("fabric.leases", float64(leases.Load()))
			continue
		}
		boards.harvest()
		if err := probeStats(tr, camp.Times(), spec); err != nil {
			return err
		}
	}
	return nil
}

// verify checks each spec's service fingerprint against the same spec
// run by mbpta.Campaign on one local worker, and in traced runs the
// matrix probe as the matrix-rerun workload checks it.
func (s *service) verify() error {
	if s.diff != nil {
		return s.diff
	}
	if s.mx != nil {
		if err := s.mx.verify(); err != nil {
			return fmt.Errorf("matrix probe: %w", err)
		}
	}
	for i, spec := range s.specs {
		fp, ok := s.fps[i]
		if !ok {
			return fmt.Errorf("spec %d never completed", i)
		}
		cfg, err := fabric.NamedPlatform(spec.Platform)
		if err != nil {
			return err
		}
		w, err := fabric.BuiltinRegistry().Build(spec.Workload)
		if err != nil {
			return err
		}
		opts := []mbpta.CampaignOption{
			mbpta.WithParallelism(1), mbpta.WithRuns(spec.Runs),
			mbpta.WithBatchSize(spec.Batch), mbpta.WithBaseSeed(spec.BaseSeed),
		}
		if spec.QuantileGate {
			opts = append(opts, mbpta.WithQuantileGate(spec.QuantileAlpha))
		}
		if spec.FaultRate > 0 {
			m, err := mbpta.ParseMitigation(spec.Mitigation)
			if err != nil {
				return err
			}
			opts = append(opts, mbpta.WithFaultInjection(mbpta.FaultConfig{Rate: spec.FaultRate, Mitigation: m}))
		}
		rep, err := mbpta.Campaign(context.Background(), cfg, w, opts...)
		if rep == nil {
			return fmt.Errorf("spec %d local campaign: %w", i, err)
		}
		if got := rep.Fingerprint(); got != fp {
			return fmt.Errorf("spec %d: service fingerprint %.12s, local single-worker %.12s", i, fp, got)
		}
	}
	return nil
}

func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.srv.Close()
	s.pool.Close()
	return err
}

// probeStats times the statistical layers the analyzer runs at the end
// of a campaign, called directly on the campaign's series: the i.i.d.
// gate, the quantile gate when the spec asks for it, and the Gumbel fit
// of the block maxima.
func probeStats(tr *tracer, times []float64, spec mbpta.CampaignSpec) error {
	t0 := tr.now()
	if _, err := stats.CheckIID(times, 0.05); err != nil {
		return err
	}
	tr.end("stats.iid", t0)
	if spec.QuantileGate {
		t0 = tr.now()
		_, err := stats.CheckQuantileGate(times, stats.QuantileGateOptions{Alpha: spec.QuantileAlpha})
		if err != nil && !errors.Is(err, stats.ErrTooFew) {
			return err
		}
		tr.end("stats.qgate", t0)
	}
	t0 = tr.now()
	maxima, _, err := evt.BlockMaxima(times, 50)
	if err != nil {
		return err
	}
	// Constant maxima (the matmul spec has no timing jitter to model)
	// fail the fit; that is the analysis verdict, and the span still
	// times the attempt.
	_, _ = evt.FitGumbel(maxima, evt.MethodPWM)
	tr.end("evt.fit", t0)
	return nil
}
