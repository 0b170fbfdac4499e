package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

const (
	// snapshotPath is the snapshot file, relative to the checkout root.
	snapshotPath = "perfbench/simstats.json"
	// snapshotSeed is the workload seed the snapshot is taken at.
	snapshotSeed = 1
)

// simStats are the simulated-hardware statistics: they depend only on
// the modelled hardware and the inputs, never on how fast the simulator
// runs, so a speed-only change leaves every one of them unchanged.
// bus.transactions is left out: with path-variant co-runners the count
// includes co-runner requests racing the measured core's halt, and it
// differs by one now and then between identical runs.
var simStats = []string{
	"isa.instructions", "cpu.cycles",
	"cache.il1_misses", "cache.dl1_misses",
	"tlb.itlb_misses", "tlb.dtlb_misses",
	"bus.wait_cycles",
}

// runSnapshot runs one traced round of every workload at snapshotSeed
// and either writes the per-operation simulated statistics to path
// ("write", after a change to the modelled hardware) or compares them
// with the file ("check", after a change that should only affect
// speed).
func runSnapshot(mode, path, workDir string, stdout io.Writer) error {
	if mode != "write" && mode != "check" {
		return fmt.Errorf("-snapshot must be write or check, got %q", mode)
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	got := map[string]map[string]float64{}
	for _, n := range names {
		res, err := measure(workloads[n], snapshotSeed, 0, true, workDir, io.Discard)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		if !res.Correct {
			return fmt.Errorf("%s: outputs failed their checks", n)
		}
		got[n] = map[string]float64{}
		for _, s := range simStats {
			got[n][s] = res.Metrics[s].Value
		}
	}
	if mode == "write" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
		return nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var want map[string]map[string]float64
	if err := json.Unmarshal(raw, &want); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	var diffs []string
	for _, n := range names {
		for _, s := range simStats {
			if w, g := want[n][s], got[n][s]; w != g {
				diffs = append(diffs, fmt.Sprintf("%s %s: snapshot %v, now %v", n, s, w, g))
			}
		}
	}
	if len(diffs) > 0 {
		return errors.New("simulated statistics differ from the snapshot (regenerate with -snapshot write if the modelled hardware changed):\n  " + strings.Join(diffs, "\n  "))
	}
	fmt.Fprintf(stdout, "simulated statistics match %s\n", path)
	return nil
}
