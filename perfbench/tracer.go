package main

import (
	"context"
	"strings"
	"sync"
	"time"

	"repro/internal/platform"
)

// tracer accumulates span time and counts by layer name. A nil tracer
// is the untraced mode: every method returns at once, so the same
// workload code serves both modes.
type tracer struct {
	mu  sync.Mutex
	dur map[string]time.Duration
	cnt map[string]float64
}

func newTracer() *tracer {
	return &tracer{dur: map[string]time.Duration{}, cnt: map[string]float64{}}
}

// now starts a span (the zero time when untraced).
func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end closes the span named name that started at t0.
func (t *tracer) end(name string, t0 time.Time) {
	if t == nil {
		return
	}
	d := time.Since(t0)
	t.mu.Lock()
	t.dur[name] += d
	t.mu.Unlock()
}

// count adds n to the counter named name.
func (t *tracer) count(name string, n float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cnt[name] += n
	t.mu.Unlock()
}

// seconds returns the accumulated span time of name.
func (t *tracer) seconds(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dur[name].Seconds()
}

// counter returns the accumulated count of name.
func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cnt[name]
}

// statser is the optional board extension that exposes the simulated
// cache/TLB counters (both board kinds implement it).
type statser interface {
	BoardStats() platform.BoardStats
}

// boardSet hands out traced boards to a campaign and, once the campaign
// has ended, folds the boards' simulated counters into the tracer.
type boardSet struct {
	tr     *tracer
	span   string // per-run span name, beside platform.run
	mu     sync.Mutex
	boards []platform.Board
}

// wrap returns a NewBoard hook that builds boards with build and times
// every run on them; nil when untraced, leaving the engine's default.
func (s *boardSet) wrap(build func() (platform.Board, error)) func() (platform.Board, error) {
	if s.tr == nil {
		return build
	}
	return func() (platform.Board, error) {
		b, err := build()
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.boards = append(s.boards, b)
		s.mu.Unlock()
		return &tracedBoard{b: b, set: s}, nil
	}
}

// harvest adds the simulated counters of every board handed out since
// the last harvest. Boards are fresh per campaign, so their cumulative
// counters are exactly the campaign's.
func (s *boardSet) harvest() {
	if s.tr == nil {
		return
	}
	s.mu.Lock()
	boards := s.boards
	s.boards = nil
	s.mu.Unlock()
	for _, b := range boards {
		st, ok := b.(statser)
		if !ok {
			continue
		}
		bs := st.BoardStats()
		s.tr.count("cache.il1_misses", float64(bs.IL1.Misses))
		s.tr.count("cache.dl1_misses", float64(bs.DL1.Misses))
		s.tr.count("tlb.itlb_misses", float64(bs.ITLB.Misses))
		s.tr.count("tlb.dtlb_misses", float64(bs.DTLB.Misses))
		s.tr.count("isa.replay_runs", float64(bs.ReplayRuns))
	}
}

// tracedBoard times each run of the board it wraps.
type tracedBoard struct {
	b    platform.Board
	set  *boardSet
	runs int
}

func (tb *tracedBoard) ExecuteRun(ctx context.Context, w platform.Workload, run int, seed uint64) (platform.RunResult, error) {
	tr := tb.set.tr
	t0 := time.Now()
	r, err := tb.b.ExecuteRun(ctx, w, run, seed)
	tr.end("platform.run", t0)
	if tb.set.span != "" {
		name := tb.set.span
		if tb.runs == 0 {
			name = "multicore.first_run"
		}
		tr.end(name, t0)
		tr.count(name+"s", 1)
	}
	tb.runs++
	if err == nil {
		tr.count("platform.runs", 1)
		tr.count("isa.instructions", float64(r.Instructions))
		tr.count("cpu.cycles", float64(r.Cycles))
	}
	return r, err
}

// absorb adds to t the spans and counts of src whose names start with
// one of prefixes.
func (t *tracer) absorb(src *tracer, prefixes ...string) {
	src.mu.Lock()
	defer src.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, d := range src.dur {
		if hasPrefix(name, prefixes) {
			t.dur[name] += d
		}
	}
	for name, n := range src.cnt {
		if hasPrefix(name, prefixes) {
			t.cnt[name] += n
		}
	}
}

func hasPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// reset drops everything recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dur = map[string]time.Duration{}
	t.cnt = map[string]float64{}
}
