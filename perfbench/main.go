// Command perfbench is the repository's same-machine benchmark. It runs
// one named workload as a closed loop (one client, each operation
// starting when the previous one has finished) for a fixed time and
// prints one JSON line: the end-to-end metrics with -trace 0, the
// per-layer metrics with -trace 1.
//
//	go run . -workload tvca-paper -seed 1 -seconds 20 -trace 0
//	go run . -snapshot check     # compare simulated statistics to simstats.json
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// processStart approximates process start for setup_s: package
// initialization runs before main and after the runtime is up.
var processStart = time.Now()

const (
	// defaultProcs is the pinned GOMAXPROCS, so that runs compare like
	// with like. It is 1, not this machine's two vCPUs: at 2 the
	// goroutine arbiter of the contention workload spreads over both
	// vCPUs and every stall of either one shows, and its wall time
	// spread 0.31 between runs against 0.05 at 1 (see README.md).
	defaultProcs = 1
	// setupRepeats is how many times each run builds its workload
	// from scratch; setup_s is the median.
	setupRepeats = 5
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: "+workloadNames())
		seed     = fs.Uint64("seed", 1, "workload seed: the inputs are a pure function of it")
		seconds  = fs.Float64("seconds", 10, "length of the timed phase; whole rounds always complete")
		traceOn  = fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 the end-to-end metrics")
		workDir  = fs.String("dir", filepath.Join(".bench_build", "work"), "parent of the run's fresh cache and journal directory")
		snapshot = fs.String("snapshot", "", "write or check: regenerate or compare the simulated-statistics snapshot")
		procs    = fs.Int("gomaxprocs", defaultProcs, "GOMAXPROCS to pin (reference figures only; runs compare at the default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *procs < 1 || *procs > 64 {
		fmt.Fprintln(stderr, "perfbench: -gomaxprocs must be in [1,64]")
		return 2
	}
	runtime.GOMAXPROCS(*procs)
	if *snapshot != "" {
		if err := runSnapshot(*snapshot, snapshotPath, *workDir, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *traceOn == 1, *workDir, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload=%s seed=%d gomaxprocs=%d campaign_workers=1 fabric_executors=%d clients=1 rounds=%d ops_per_round=%d attempted=%d failed=%d host_ref_s=%.4f\n",
		*name, *seed, runtime.GOMAXPROCS(0), w.executors, res.rounds, res.opsPerRound, res.Attempted, res.Failed, res.refS)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// env is what a workload's setup receives.
type env struct {
	seed uint64
	dir  string  // fresh, empty directory for caches and journals
	tr   *tracer // nil when untraced
}

// op is one closed-loop operation. It returns the measurement runs it
// delivered (simulated or replayed from a cache).
type op struct {
	name string
	fn   func() (runs int, err error)
}

// instance is a set-up workload.
type instance interface {
	// round is the fixed sequence of operations the loop repeats.
	round() []op
	// verify checks the outputs of the timed phase once it has ended.
	verify() error
	close() error
}

// prober is implemented by workloads whose traced runs measure some
// layers with extra calls made between rounds, outside the timed
// operations.
type prober interface {
	afterRound() error
}

// spec describes a workload to the driver loop.
type spec struct {
	setup     func(env) (instance, error)
	executors int // fabric executors the workload runs (0 = no pool)
	// cover names the spans that together cover an operation's time;
	// the rest is reported as bench.unattributed_s.
	cover []string
}

var workloads = map[string]spec{
	"tvca-paper":   {setup: setupTVCA, cover: []string{"platform.run", "stats.iid", "evt.fit"}},
	"contention":   {setup: setupContention, cover: []string{"platform.run"}},
	"matrix-rerun": {setup: setupMatrix, cover: []string{"wal.recover", "matrix.lookup", "wal.barrier", "core.observe", "core.finalize", "mbpta.fingerprint"}},
	"service":      {setup: setupService, executors: 1, cover: []string{"pwcetd.submit", "pwcetd.wait", "pwcetd.report"}},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	b, _ := json.Marshal(names)
	return string(b)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's closing JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	rounds, opsPerRound int
	refS                float64
}

// errWrong marks an operation whose output failed a correctness check,
// as opposed to one that could not complete.
var errWrong = errors.New("wrong output")

// measure sets the workload up setupRepeats times, runs whole rounds of
// its operations until d has passed, verifies the outputs and
// assembles the metrics.
func measure(w spec, seed uint64, d time.Duration, traced bool, workDir string, stderr io.Writer) (*result, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var inst instance
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		dir := filepath.Join(root, fmt.Sprintf("setup-%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		// Only the last setup is kept and gets the tracer: the timed
		// phase runs on it.
		e := env{seed: seed, dir: dir}
		if i == setupRepeats-1 {
			e.tr = tr
		}
		in, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			if err := in.close(); err != nil {
				return nil, fmt.Errorf("setup teardown: %w", err)
			}
			continue
		}
		inst = in
	}
	defer inst.close()
	if tr != nil {
		// Spans from the kept setup are not per-operation costs.
		tr.reset()
	}

	ops := inst.round()
	res := &result{Correct: true, opsPerRound: len(ops)}
	var lat, roundWall, refs []float64
	var runs int
	var spent delta // summed over the timed rounds
	start := time.Now()
	for res.rounds == 0 || time.Since(start) < d {
		u0 := readUsage()
		for _, o := range ops {
			t0 := time.Now()
			n, err := o.fn()
			res.Attempted++
			switch {
			case errors.Is(err, errWrong):
				res.Correct = false
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.name, err)
			case err != nil:
				res.Failed++
				fmt.Fprintf(stderr, "perfbench: %s failed: %v\n", o.name, err)
			default:
				lat = append(lat, time.Since(t0).Seconds())
				runs += n
			}
		}
		dd := readUsage().sub(u0)
		spent.wall += dd.wall
		spent.cpu += dd.cpu
		spent.alloc += dd.alloc
		roundWall = append(roundWall, dd.wall.Seconds())
		refs = append(refs, referenceLoop().Seconds())
		res.rounds++
		if p, ok := inst.(prober); ok {
			if err := p.afterRound(); err != nil {
				return nil, fmt.Errorf("traced probe: %w", err)
			}
		}
		// Every round starts from the same heap state: collected, and
		// the free pages handed back to the OS, so that neither a
		// round's GC work nor the pages its heap lands on carry over
		// from the round before. In alternating 20-s service runs this
		// brought the quartile spread of wall_s from 0.12-0.14 to
		// 0.09 (see README.md).
		debug.FreeOSMemory()
	}
	if err := inst.verify(); err != nil {
		res.Correct = false
		fmt.Fprintln(stderr, "perfbench: verify:", err)
	}
	res.refS = median(refs)
	fmt.Fprintf(stderr, "perfbench: %d ops, latency min %.4fs p50 %.4fs", len(lat), nearestRank(lat, 0), median(lat))
	if p, v, ok := tailPercentile(lat); ok {
		fmt.Fprintf(stderr, " p%.0f %.4fs", 100*p, v)
	}
	fmt.Fprintf(stderr, " max %.4fs; round wall min %.4fs max %.4fs; host ref min %.4fs max %.4fs\n",
		nearestRank(lat, 1), nearestRank(roundWall, 0), nearestRank(roundWall, 1), nearestRank(refs, 0), nearestRank(refs, 1))

	if tr != nil {
		res.Metrics = layerMetrics(tr, w.cover, lat, res.refS)
		return res, nil
	}
	// Per-round costs are means over the whole timed phase, not medians
	// of rounds: the host's speed switches between a fast and a slow
	// state for tens of seconds at a time, and a median jumps to
	// whichever state held most rounds, while the mean moves in
	// proportion to the time spent in each (see README.md).
	n := float64(res.rounds)
	res.Metrics = map[string]metric{
		"setup_s":    {median(setups), "s"},
		"wall_s":     {spent.wall.Seconds() / n, "s"},
		"cpu_s":      {spent.cpu.Seconds() / n, "s"},
		"runs_per_s": {float64(runs) / spent.wall.Seconds(), "1/s"},
		"op_p50_s":   {median(lat), "s"},
		"alloc_mb":   {float64(spent.alloc) / (1 << 20) / n, "MiB"},
		"max_rss_mb": {maxRSSMiB(), "MiB"},
	}
	return res, nil
}
