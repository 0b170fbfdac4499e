package main

import (
	"context"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/platform"
	"repro/internal/tvca"
)

const (
	// stableRuns and variantRuns size the two campaign kinds. A run
	// with path-variant co-runners costs several inline runs, so the
	// variant campaign is smaller; both stay MBPTA-sized (>= 5 blocks).
	stableRuns  = 300
	variantRuns = 60
	// hiddenRuns is the prefix of the stable campaign re-run with
	// TraceStable hidden (run i's seed does not depend on campaign size).
	hiddenRuns = 40
)

// contention measures TVCA on the 4-core RAND board against two kinds
// of co-runner: trace-stable streamers (every run after the first
// replays inline in the caller's goroutine) and path-variant kernels
// (every run goes through the goroutine arbiter).
type contention struct {
	tr       *tracer
	seed     uint64
	measured *tvca.App
	stable   []platform.Workload
	variant  []platform.Workload
	first    map[string][]uint64 // per-run cycles of the first campaign of each kind
	diff     error
}

func setupContention(e env) (instance, error) {
	cfg := tvca.DefaultConfig()
	cfg.Frames = 4
	cfg.InputSeed = e.seed
	app, err := tvca.New(cfg)
	if err != nil {
		return nil, err
	}
	coTVCA := cfg
	coTVCA.InputSeed = e.seed + 1
	coApp, err := tvca.New(coTVCA)
	if err != nil {
		return nil, err
	}
	streamer := experiments.StreamerWorkload{Lines: 1024}
	c := &contention{
		tr:       e.tr,
		seed:     e.seed,
		measured: app,
		stable:   []platform.Workload{streamer, streamer, streamer},
		variant: []platform.Workload{
			kernels.CRC32{Bytes: 512, Seed: e.seed + 2},
			kernels.InsertionSort{N: 64, Seed: e.seed + 3},
			coApp,
		},
		first: map[string][]uint64{},
	}
	// Warm-up: one short campaign of each kind, long enough that setup
	// time is mostly simulation rather than a few noisy milliseconds.
	for _, kind := range []string{"stable", "variant"} {
		if _, err := c.campaign(kind, c.coRunners(kind), 30); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *contention) coRunners(kind string) []platform.Workload {
	if kind == "stable" {
		return c.stable
	}
	return c.variant
}

// busTally sums the shared-bus activity of a campaign's runs.
type busTally struct{ tx, wait uint64 }

// mcBoard runs a co-simulated measurement exactly as
// (*platform.Multicore).ExecuteRun does, keeping the bus statistics the
// Board interface drops.
type mcBoard struct {
	mc  *platform.Multicore
	bus *busTally
}

func (b *mcBoard) ExecuteRun(ctx context.Context, w platform.Workload, run int, seed uint64) (platform.RunResult, error) {
	if err := ctx.Err(); err != nil {
		return platform.RunResult{}, err
	}
	r, err := b.mc.Run(w, run, seed)
	if err != nil {
		return platform.RunResult{}, err
	}
	b.bus.tx += r.BusStats.Transactions
	b.bus.wait += r.BusStats.WaitCycles
	return r.Measured, nil
}

func (b *mcBoard) BoardStats() platform.BoardStats { return b.mc.BoardStats() }

// campaign measures runs TVCA runs against coRunners and returns the
// per-run cycles. kind names the span the runs are traced under.
func (c *contention) campaign(kind string, coRunners []platform.Workload, runs int) ([]uint64, error) {
	cfg := platform.RAND()
	bus := &busTally{}
	boards := boardSet{tr: c.tr, span: "multicore." + kind + "_run"}
	res, err := platform.StreamCampaign(context.Background(), cfg, c.measured, platform.StreamOptions{
		MaxRuns:   runs,
		BatchSize: runs,
		Parallel:  1,
		BaseSeed:  c.seed,
		NewBoard: boards.wrap(func() (platform.Board, error) {
			mc, err := platform.NewMulticore(cfg, coRunners)
			if err != nil {
				return nil, err
			}
			return &mcBoard{mc: mc, bus: bus}, nil
		}),
	}, nil)
	if err != nil {
		return nil, err
	}
	boards.harvest()
	c.tr.count("bus.transactions", float64(bus.tx))
	c.tr.count("bus.wait_cycles", float64(bus.wait))
	if bus.wait == 0 {
		return nil, fmt.Errorf("%w: %s campaign saw no bus wait cycles", errWrong, kind)
	}
	cycles := make([]uint64, len(res.Results))
	for i, r := range res.Results {
		cycles[i] = r.Cycles
	}
	return cycles, nil
}

func (c *contention) round() []op {
	stable := op{name: "stable-corunners", fn: func() (int, error) { return c.measure("stable", stableRuns) }}
	variant := op{name: "variant-corunners", fn: func() (int, error) { return c.measure("variant", variantRuns) }}
	// Two stable campaigns per variant one keep the median latency
	// inside one campaign kind.
	return []op{stable, variant, stable}
}

func (c *contention) measure(kind string, runs int) (int, error) {
	cycles, err := c.campaign(kind, c.coRunners(kind), runs)
	if err != nil {
		return 0, err
	}
	if prev, ok := c.first[kind]; !ok {
		c.first[kind] = cycles
	} else if err := sameCycles(prev, cycles); err != nil {
		c.diff = fmt.Errorf("%s campaign not reproducible: %v", kind, err)
		return 0, fmt.Errorf("%w: %v", errWrong, c.diff)
	}
	return len(cycles), nil
}

func sameCycles(want, got []uint64) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d runs, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("run %d: %d cycles, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// hiddenStreamer is the streamer without its TraceStable declaration:
// the board must interpret it every iteration through the goroutine
// arbiter instead of replaying a recorded trace inline.
type hiddenStreamer struct{ s experiments.StreamerWorkload }

func (h hiddenStreamer) Name() string                          { return h.s.Name() }
func (h hiddenStreamer) Prepare(run int) (*isa.Machine, error) { return h.s.Prepare(run) }
func (h hiddenStreamer) PathOf(m *isa.Machine) string          { return h.s.PathOf(m) }
func (h hiddenStreamer) Reload(m *isa.Machine, run int) error  { return h.s.Reload(m, run) }

// verify re-runs the stable campaign with TraceStable hidden: inline
// replay must be a pure speed-up, so every run's cycles must match.
func (c *contention) verify() error {
	if c.diff != nil {
		return c.diff
	}
	want, ok := c.first["stable"]
	if !ok {
		return fmt.Errorf("no stable campaign completed")
	}
	hidden := make([]platform.Workload, len(c.stable))
	for i, w := range c.stable {
		hidden[i] = hiddenStreamer{w.(experiments.StreamerWorkload)}
	}
	saved := c.tr
	c.tr = nil // the check is not part of the measured work
	got, err := c.campaign("stable", hidden, hiddenRuns)
	c.tr = saved
	if err != nil {
		return err
	}
	if err := sameCycles(want[:hiddenRuns], got); err != nil {
		return fmt.Errorf("stable co-runners with TraceStable hidden: %v", err)
	}
	return nil
}

func (c *contention) close() error { return nil }
