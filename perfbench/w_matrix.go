package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/pkg/mbpta"
)

const (
	matrixRuns  = 500
	matrixBatch = 50
	// crcInputAddr is where kernels.CRC32 keeps its input buffer (its
	// data segment base plus the 0x1000 data offset).
	crcInputAddr = 0x200000 + 0x1000
)

// matrixRerun is the re-analysis path: a {DET,RAND} x {crc32, isort,
// matmul} matrix simulated once into a fresh cache during setup, then
// re-run warm — journal recovery, cache lookups, the online analyzer
// and the report fingerprints, with no simulation.
type matrixRerun struct {
	tr    *tracer
	spec  matrix.Spec
	cells []matrix.Cell
	cache *matrix.Cache
	wal   *telemetry.Registry // the cache's WAL counters (traced runs only)
	cold  map[string]matrix.CellResult
	diff  error
}

func matrixSpec(seed uint64) matrix.Spec {
	params := func(v any) json.RawMessage {
		b, _ := json.Marshal(v)
		return b
	}
	return matrix.Spec{
		Platforms: []string{"DET", "RAND"},
		Workloads: []fabric.WorkloadSpec{
			{Kind: "crc32", Params: params(kernels.CRC32{Bytes: 1024, Seed: seed})},
			{Kind: "isort", Params: params(kernels.InsertionSort{N: 64, Seed: seed + 1})},
			{Kind: "matmul", Params: params(kernels.MatMul{N: 8, Seed: seed + 2})},
		},
		Runs:     matrixRuns,
		Batch:    matrixBatch,
		BaseSeed: seed,
	}
}

// setupMatrix runs the cold pass: every cell simulates into a fresh
// cache directory, through the WAL append path.
func setupMatrix(e env) (instance, error) {
	spec := matrixSpec(e.seed)
	cells, err := matrix.Expand(spec)
	if err != nil {
		return nil, err
	}
	cache, err := matrix.NewCache(filepath.Join(e.dir, "matrix-cache"))
	if err != nil {
		return nil, err
	}
	m := &matrixRerun{tr: e.tr, spec: spec, cells: cells, cache: cache, cold: map[string]matrix.CellResult{}}
	rep, err := m.runner().Run(context.Background(), spec)
	if err != nil {
		return nil, fmt.Errorf("cold pass: %w", err)
	}
	if rep.CachedRuns != 0 {
		return nil, fmt.Errorf("cold pass replayed %d cached runs from a fresh directory", rep.CachedRuns)
	}
	for _, c := range rep.Cells {
		m.cold[c.Label] = c
	}
	if e.tr != nil {
		m.wal = telemetry.New()
		cache.SetTelemetry(m.wal)
	}
	return m, nil
}

func (m *matrixRerun) runner() *matrix.Runner {
	return &matrix.Runner{Cache: m.cache, CellParallel: 1, Parallel: 1}
}

func (m *matrixRerun) round() []op {
	if m.tr != nil {
		return []op{{name: "warm-pass", fn: m.tracedPass}}
	}
	return []op{{name: "warm-pass", fn: m.warmPass}}
}

// warmPass re-runs the matrix through the program's runner, as
// `tvca -matrix spec -matrix-cache dir` does the second time.
func (m *matrixRerun) warmPass() (int, error) {
	rep, err := m.runner().Run(context.Background(), m.spec)
	if err != nil {
		return 0, err
	}
	if rep.SimulatedRuns != 0 {
		return 0, fmt.Errorf("%w: warm pass simulated %d runs", errWrong, rep.SimulatedRuns)
	}
	for _, c := range rep.Cells {
		if err := m.sameAsCold(c.Label, c.Fingerprint); err != nil {
			return 0, err
		}
	}
	return rep.CachedRuns, nil
}

func (m *matrixRerun) sameAsCold(label, fp string) error {
	cold, ok := m.cold[label]
	if !ok || cold.Fingerprint != fp {
		m.diff = fmt.Errorf("cell %s: warm fingerprint %.12s differs from cold %.12s", label, fp, cold.Fingerprint)
		return fmt.Errorf("%w: %v", errWrong, m.diff)
	}
	return nil
}

// tracedPass performs the warm pass through the layers' own entry
// points, in the order mbpta.Campaign calls them for a cached cell,
// with a span around each call.
func (m *matrixRerun) tracedPass() (int, error) {
	runs := 0
	fsyncs := m.wal.Snapshot()["wal_fsyncs_total"]
	records := m.wal.Snapshot()["wal_records_total"]
	for _, cell := range m.cells {
		n, fp, err := m.tracedCell(cell)
		if err != nil {
			return 0, err
		}
		if err := m.sameAsCold(cell.Label(), fp); err != nil {
			return 0, err
		}
		runs += n
	}
	snap := m.wal.Snapshot()
	m.tr.count("wal.fsyncs", snap["wal_fsyncs_total"]-fsyncs)
	m.tr.count("wal.records", snap["wal_records_total"]-records)
	m.tr.count("matrix.passes", 1)
	return runs, nil
}

func (m *matrixRerun) tracedCell(cell matrix.Cell) (int, string, error) {
	tr := m.tr
	cfg, err := fabric.NamedPlatform(cell.Platform)
	if err != nil {
		return 0, "", err
	}
	w, err := fabric.BuiltinRegistry().Build(cell.Workload)
	if err != nil {
		return 0, "", err
	}
	rule, err := cell.StopRule.Build(cell.Runs)
	if err != nil {
		return 0, "", err
	}
	t0 := tr.now()
	entry, err := m.cache.Acquire(cell)
	tr.end("wal.recover", t0)
	if err != nil {
		return 0, "", err
	}

	online := core.NewOnlineAnalyzer(core.Options{Alpha: cell.Analysis.Alpha, BlockSize: cell.Analysis.BlockSize}, rule)
	hits := 0
	so := platform.StreamOptions{
		MaxRuns:   cell.Runs,
		BatchSize: cell.Batch,
		Parallel:  1,
		BaseSeed:  cell.BaseSeed,
		Cached: func(run int) (platform.RunResult, bool) {
			t0 := tr.now()
			r, ok := entry.Lookup(run)
			tr.end("matrix.lookup", t0)
			if ok {
				hits++
			}
			return r, ok
		},
		Journal: tracedJournal{j: entry.Journal(), tr: tr},
	}
	camp, err := platform.StreamCampaign(context.Background(), cfg, w, so, analyzerSink(tr, online))
	t0 = tr.now()
	err = errors.Join(err, entry.Close()) // Close syncs the journal
	tr.end("wal.barrier", t0)
	if err != nil {
		return 0, "", err
	}
	tr.count("matrix.hits", float64(hits))
	tr.count("matrix.simulated_runs", float64(len(camp.Results)-hits))
	return len(camp.Results), finishReport(tr, camp, online, rule), nil
}

// analyzerSink feeds each batch to the online analyzer, as
// mbpta.Campaign does, timing the call.
func analyzerSink(tr *tracer, online *core.OnlineAnalyzer) platform.BatchSink {
	return func(b platform.Batch) (bool, error) {
		t0 := tr.now()
		defer tr.end("core.observe", t0)
		tr.count("core.batches", 1)
		obs := make([]core.Observation, len(b.Results))
		for i, r := range b.Results {
			obs[i] = core.Observation{Cycles: float64(r.Cycles), Path: r.Path, Outcome: r.Outcome, Mitigated: platform.MitigatedOutcome(r.Outcome)}
		}
		snap, err := online.ObserveBatch(obs)
		return snap.Done, err
	}
}

// finishReport finalizes the analysis, assembles the campaign report as
// mbpta.Campaign does and returns its fingerprint, timing both steps. A
// failed final fit (constant maxima on DET, say) leaves the report
// without an analysis, as in mbpta.Campaign.
func finishReport(tr *tracer, camp *platform.CampaignResult, online *core.OnlineAnalyzer, rule core.StopRule) string {
	rep := &mbpta.CampaignReport{
		Campaign:  camp,
		Snapshots: online.Snapshots(),
		Converged: online.Done(),
		StopRuns:  len(camp.Results),
		Rule:      rule.Name(),
		Faults:    faults.Summarize(camp.Results),
	}
	t0 := tr.now()
	if res, err := online.Finalize(); err == nil {
		rep.Analysis = res
	}
	tr.end("core.finalize", t0)
	t0 = tr.now()
	defer tr.end("mbpta.fingerprint", t0)
	return rep.Fingerprint()
}

// tracedJournal times the cache journal's calls; Barrier is where the
// WAL checkpoints and fsyncs.
type tracedJournal struct {
	j  platform.Journal
	tr *tracer
}

func (t tracedJournal) LogRun(run int, seed uint64, r platform.RunResult) error {
	t0 := t.tr.now()
	defer t.tr.end("wal.barrier", t0)
	return t.j.LogRun(run, seed, r)
}

func (t tracedJournal) Barrier(b platform.Batch) error {
	t0 := t.tr.now()
	defer t.tr.end("wal.barrier", t0)
	return t.j.Barrier(b)
}

func (t tracedJournal) Flush() error {
	t0 := t.tr.now()
	defer t.tr.end("wal.barrier", t0)
	return t.j.Flush()
}

// verify checks every cell's pWCET against a batch analysis of the run
// series read back through WAL recovery, and samples the kernels'
// architectural results against Go's own CRC-32 and sort.
func (m *matrixRerun) verify() error {
	if m.diff != nil {
		return m.diff
	}
	for _, cell := range m.cells {
		if err := m.verifyCell(cell); err != nil {
			return fmt.Errorf("cell %s: %w", cell.Label(), err)
		}
	}
	return m.verifyKernels()
}

func (m *matrixRerun) verifyCell(cell matrix.Cell) error {
	key, err := cell.SimKey()
	if err != nil {
		return err
	}
	rec, err := wal.Recover(filepath.Join(m.cache.Dir(), key+".wal"))
	if err != nil {
		return err
	}
	if len(rec.Runs) != cell.Runs {
		return fmt.Errorf("journal holds %d runs, want %d", len(rec.Runs), cell.Runs)
	}
	byPath := map[string][]float64{}
	for _, r := range rec.Runs {
		byPath[r.Path] = append(byPath[r.Path], float64(r.Cycles))
	}
	res, aerr := core.NewAnalyzer(core.Options{Alpha: cell.Analysis.Alpha, BlockSize: cell.Analysis.BlockSize}).AnalyzeByPath(byPath)
	got := m.cold[cell.Label()]
	for i, p := range got.PWCET {
		switch {
		case aerr != nil && p != nil:
			return fmt.Errorf("report has pWCET %v but the batch analysis fails: %v", *p, aerr)
		case aerr != nil:
		case p == nil:
			return fmt.Errorf("report lacks pWCET(%g) the batch analysis gives", got.Quantiles[i])
		default:
			want, err := res.PWCET(got.Quantiles[i])
			if err != nil {
				return err
			}
			if *p != want {
				return fmt.Errorf("pWCET(%g) %v, batch analysis %v", got.Quantiles[i], *p, want)
			}
		}
	}
	return nil
}

func (m *matrixRerun) verifyKernels() error {
	for _, ws := range m.spec.Workloads {
		w, err := fabric.BuiltinRegistry().Build(ws)
		if err != nil {
			return err
		}
		for _, run := range []int{0, 1, 17} {
			mach, err := w.Prepare(run)
			if err != nil {
				return err
			}
			switch ws.Kind {
			case "crc32":
				var k kernels.CRC32
				if err := json.Unmarshal(ws.Params, &k); err != nil {
					return err
				}
				buf := make([]byte, k.Bytes)
				for i := 0; i < k.Bytes/4; i++ {
					v, err := mach.Mem.Read32(uint64(crcInputAddr + 4*i))
					if err != nil {
						return err
					}
					binary.LittleEndian.PutUint32(buf[4*i:], v)
				}
				if _, err := mach.Run(nil); err != nil {
					return err
				}
				if got, want := k.Result(mach), crc32.ChecksumIEEE(buf); got != want {
					return fmt.Errorf("crc32 run %d: kernel %#x, hash/crc32 %#x", run, got, want)
				}
			case "isort":
				var k kernels.InsertionSort
				if err := json.Unmarshal(ws.Params, &k); err != nil {
					return err
				}
				want := k.Keys(mach) // the unsorted input
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if _, err := mach.Run(nil); err != nil {
					return err
				}
				got := k.Keys(mach)
				for i := range want {
					if got[i] != want[i] {
						return fmt.Errorf("isort run %d: key %d is %d, sort gives %d", run, i, got[i], want[i])
					}
				}
			}
		}
	}
	return nil
}

func (m *matrixRerun) close() error { return nil }
