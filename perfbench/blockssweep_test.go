package main

import (
	"bytes"
	"context"
	"maps"
	"math"
	"runtime"
	"testing"
	"time"

	"ethmeasure/internal/core"
	"ethmeasure/internal/sweep"
)

// goroutineID returns the id of the calling goroutine, from the header
// line runtime.Stack prints ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// The cold re-run must compare runs that the pool really recycled. The
// runner calls OnResult on the worker goroutine that ran the job, so
// the goroutine tells which worker built which run. A worker takes
// jobs in index order and builds every run after its first from its
// recycled pool.
func TestColdRerunCoversWarmRuns(t *testing.T) {
	base := core.DefaultConfig()
	base.Duration = 2 * time.Minute
	base.NumNodes = 40
	base.OutDegree = 4
	base.Shards = 1
	base.EnableTxWorkload = false
	for i := range base.Vantages {
		if base.Vantages[i].Peers > 20 {
			base.Vantages[i].Peers = 20
		}
	}
	core.ApplyCapacity(&base)
	m := &sweep.Matrix{Base: base, Seeds: sweep.Seeds(5, sweepSeeds)}
	worker := make(map[int]string) // run index -> goroutine that ran it
	runner := &sweep.Runner{Workers: sweepWorkers, OnResult: func(_, _ int, r *sweep.RunResult) {
		worker[r.Run.Index] = goroutineID()
	}}
	results, err := runner.Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	var warm []int
	for i := range results {
		if seen[worker[i]] {
			warm = append(warm, i)
		}
		seen[worker[i]] = true
	}
	if len(warm) < sweepSeeds-sweepWorkers {
		t.Fatalf("%d of %d runs built from a recycled pool, want at least %d", len(warm), len(results), sweepSeeds-sweepWorkers)
	}

	tr := newTracer(options{})
	if err := coldRerun(tr, results); err != nil {
		t.Fatalf("cold re-run fails on the program's own sweep: %v", err)
	}
	// State leaking into a warm run shows as a KeyMetrics difference.
	leaked := append([]sweep.RunResult(nil), results...)
	i := warm[0]
	leaked[i].Metrics = maps.Clone(results[i].Metrics)
	for name, v := range leaked[i].Metrics {
		if !math.IsNaN(v) {
			leaked[i].Metrics[name] = math.Nextafter(v, math.Inf(1))
			break
		}
	}
	if coldRerun(tr, leaked) == nil {
		t.Fatalf("cold re-run passed with warm run %d's metrics perturbed", i)
	}
	if coldRerun(tr, results[:sweepWorkers]) == nil {
		t.Fatal("cold re-run accepted a sweep with no more runs than workers")
	}
}
