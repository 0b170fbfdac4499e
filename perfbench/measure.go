package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	wall  time.Time
	cpu   time.Duration // user + system CPU of the whole process
	alloc uint64        // cumulative heap bytes allocated
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpu: processCPU(), alloc: ms.TotalAlloc}
}

// delta is the resource cost between two readings.
type delta struct {
	wall, cpu time.Duration
	alloc     uint64
}

func (u usage) sub(prev usage) delta {
	return delta{wall: u.wall.Sub(prev.wall), cpu: u.cpu - prev.cpu, alloc: u.alloc - prev.alloc}
}

// processCPU returns the user+system CPU time the process has consumed.
// Time the hypervisor steals from the VM is not charged to the process,
// so cpu_s stays comparable when the host is busy.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB returns the process's peak resident set in MiB (Linux
// reports ru_maxrss in KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is not modified. It returns 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles lists the percentiles a latency summary may report
// beyond the median, highest first.
var tailPercentiles = []float64{0.99, 0.9, 0.75}

// tailPercentile returns the highest percentile of xs that has at least
// ten samples beyond it, and its nearest-rank value. With fewer than
// forty samples no percentile qualifies and ok is false: a percentile
// with a handful of samples above it says nothing about the tail.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	n := len(xs)
	if n < 40 {
		return 0, 0, false
	}
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p, nearestRank(xs, p), true
		}
	}
	return 0, 0, false
}

// nearestRank returns the smallest sample with at least fraction p of
// the samples at or below it (0 for no samples).
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s))-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// refSink keeps the reference loop's result observable so the compiler
// cannot drop the loop.
var refSink uint64

// refTable is the reference loop's 4 MiB working set: twice this
// machine's per-core L2, so the loop's memory half feels the shared
// last-level cache and memory bandwidth the way the simulator does.
var refTable = func() []uint32 {
	t := make([]uint32, 1<<20)
	for i := range t {
		t[i] = uint32(i) * 2654435761
	}
	return t
}()

// referenceLoop times a fixed workload that lives in this package and
// touches no repository code: an integer mixing loop and a chain of
// dependent reads across refTable. Its duration moves only with the
// host's speed, so a shift in it beside a shift in the end-to-end
// metrics marks host drift rather than a regression.
func referenceLoop() time.Duration {
	t0 := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	var acc uint64
	var table [1024]uint64
	for i := 0; i < 1<<21; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & 1023
		table[j] += x
		acc += table[(j*7)&1023]
	}
	k := uint32(acc)
	for i := 0; i < 1<<18; i++ {
		k = refTable[k&(1<<20-1)] + uint32(i)
	}
	refSink += acc + uint64(k)
	return time.Since(t0)
}
