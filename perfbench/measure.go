package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// round is the cost of one measured operation of a workload: one
// campaign, one sweep or one write-and-reanalyze pass.
type round struct {
	wall       time.Duration
	cpu        time.Duration // process user+sys, all threads
	allocBytes uint64
	allocObjs  uint64
	records    int // measurement records the operation produced or moved
	gcCycles   uint32
	gcCPU      float64 // seconds of GC CPU, from runtime/metrics
}

// meter brackets one operation with process-level counters.
type meter struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
	gcCPU float64
}

// startMeter collects garbage first, untimed, so every operation starts
// from the same heap state and is charged only for its own garbage.
func startMeter() *meter {
	runtime.GC()
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.gcCPU = gcCPUSeconds()
	m.cpu = processCPU()
	m.start = time.Now()
	return m
}

// stop ends the bracket. records is the operation's record count.
func (m *meter) stop(records int) round {
	wall := time.Since(m.start)
	cpu := processCPU() - m.cpu
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return round{
		wall:       wall,
		cpu:        cpu,
		allocBytes: after.TotalAlloc - m.mem.TotalAlloc,
		allocObjs:  after.Mallocs - m.mem.Mallocs,
		records:    records,
		gcCycles:   after.NumGC - m.mem.NumGC,
		gcCPU:      gcCPUSeconds() - m.gcCPU,
	}
}

// processCPU returns the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func gcCPUSeconds() float64 {
	metrics.Read(gcCPUSample)
	if gcCPUSample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return gcCPUSample[0].Value.Float64()
}

// median returns the median of xs (the mean of the middle pair for an
// even count); 0 for an empty slice.
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

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// durations converts to seconds for the statistics helpers.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// field extracts one per-round quantity.
func field(rs []round, f func(round) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}
