package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/core"
	"ethmeasure/internal/sweep"
)

// blocks-sweep: one sweep.Runner sweep per operation over several seeds
// of block-only campaigns at about 2000 nodes, on the default pooled
// path with two workers. The tx path is idle; the work falls on block
// relay, chain import, mining, the engine queue at a large node count,
// and the per-run build with the warm-run pool.

const (
	sweepNodes    = 2000
	sweepDuration = 4 * time.Minute
	sweepSeeds    = 4
	sweepWorkers  = 2
	// expansionsPerSample repeats the matrix expansion (microseconds
	// each) enough times that one set-up sample is timeable.
	expansionsPerSample = 200
)

func sweepBase() core.Config {
	cfg := core.DefaultConfig()
	cfg.Duration = sweepDuration
	cfg.NumNodes = sweepNodes
	cfg.Shards = 1
	cfg.EnableTxWorkload = false
	cfg.RetainRecords = false
	core.ApplyCapacity(&cfg)
	return cfg
}

func runBlocksSweep(opts options) (*report, error) {
	rep := &report{}
	tr := newTracer(opts)
	base := sweepBase()
	var firstSweep []sweep.RunResult
	deadline := time.Now().Add(opts.seconds)
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		m := &sweep.Matrix{Base: base, Seeds: sweep.Seeds(campaignSeed(opts.seed, i*sweepSeeds), sweepSeeds)}
		runtime.GC() // as startMeter does, so set-up starts from a clean heap too
		start := time.Now()
		for k := 0; k < expansionsPerSample; k++ {
			if _, err := m.Runs(); err != nil {
				return nil, fmt.Errorf("matrix: %w", err)
			}
		}
		rep.setup = append(rep.setup, time.Since(start)/expansionsPerSample)

		traced := tr.enabled && i%2 == 1
		runner := &sweep.Runner{Workers: sweepWorkers}
		meter := startMeter()
		if traced {
			if err := tr.prof.start(); err != nil {
				return nil, err
			}
		}
		results, err := runner.Run(context.Background(), m)
		aggStart := time.Now()
		agg := sweep.Aggregate(results)
		aggWall := time.Since(aggStart)
		records := 0
		for _, r := range results {
			records += r.Stats.BlockRecords + r.Stats.TxRecords
		}
		rd := meter.stop(records)
		if err := tr.prof.stop(); err != nil {
			return nil, err
		}
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		rep.attempted += len(results)
		for _, r := range results {
			if !r.Ok() {
				rep.failed++
			}
		}
		if tr.enabled {
			tr.round(traced, rd)
		}
		if traced {
			traceSweep(tr, results, aggWall)
		} else {
			rep.rounds = append(rep.rounds, rd)
		}
		rep.check(checkAggregate(results, agg))
		if firstSweep == nil {
			firstSweep = results
		}
	}
	rep.check(coldRerun(tr, firstSweep))
	if err := tr.finish(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// traceSweep records the per-run spans and counters of one sweep.
func traceSweep(tr *tracer, results []sweep.RunResult, aggWall time.Duration) {
	var run, sim, overhead, events, nsPerEvent, messages, blocks, blockRecs, txRecs []float64
	for _, r := range results {
		if !r.Ok() {
			continue
		}
		st := r.Stats
		run = append(run, r.Wall.Seconds())
		sim = append(sim, st.WallDuration.Seconds())
		overhead = append(overhead, (r.Wall - st.WallDuration).Seconds())
		events = append(events, float64(st.Events))
		nsPerEvent = append(nsPerEvent, float64(st.WallDuration.Nanoseconds())/float64(st.Events))
		messages = append(messages, float64(st.Messages))
		blocks = append(blocks, float64(st.BlocksCreated))
		blockRecs = append(blockRecs, float64(st.BlockRecords))
		txRecs = append(txRecs, float64(st.TxRecords))
	}
	tr.add("sweep.run_s", median(run))
	tr.add("sweep.sim_s", median(sim))
	tr.add("sweep.overhead_s", median(overhead))
	tr.add("sweep.aggregate_s", aggWall.Seconds())
	tr.add("sim.events", median(events))
	tr.add("sim.ns_per_event", median(nsPerEvent))
	tr.add("simnet.messages", median(messages))
	tr.add("mining.blocks", median(blocks))
	tr.add("chain.blocks", median(blocks)+1) // the registry holds genesis too
	tr.add("measure.block_records", median(blockRecs))
	tr.add("measure.tx_records", median(txRecs))
}

// coldRerun builds every run of a pooled sweep again without a pool,
// outside the timed phase, and requires bit-identical KeyMetrics: the
// warm-run pool must not leak state between runs. A runner worker
// builds only its first run from an empty pool (and the run after a
// failed one), so when every run succeeded and the sweep has more runs
// than workers, at least len(pooled) - sweepWorkers of the runs
// compared here were built from recycled state. In a traced run it also
// spans the core phases and samples the engine's queue depth.
func coldRerun(tr *tracer, pooled []sweep.RunResult) error {
	if len(pooled) <= sweepWorkers {
		return fmt.Errorf("cold re-run: %d runs on %d workers need not include a warm one", len(pooled), sweepWorkers)
	}
	for i := range pooled {
		if !pooled[i].Ok() {
			return fmt.Errorf("cold re-run: pooled run %d failed, so the runs after it may have been built cold", i)
		}
	}
	for i := range pooled {
		if err := coldRerunOne(tr, &pooled[i]); err != nil {
			return err
		}
	}
	return nil
}

func coldRerunOne(tr *tracer, pooled *sweep.RunResult) error {
	cfg := pooled.Run.Config
	cfg.RetainRecords = false // as the runner runs it
	start := time.Now()
	c, err := core.NewCampaign(cfg)
	if err != nil {
		return fmt.Errorf("cold re-run: %w", err)
	}
	build := time.Since(start)
	var metrics analysis.KeyMetrics
	if tr.enabled {
		res, _, err := tracedCampaign(tr, nil, c, build)
		if err != nil {
			return fmt.Errorf("cold re-run: %w", err)
		}
		metrics = res.KeyMetrics()
	} else {
		res, err := c.Run()
		if err != nil {
			return fmt.Errorf("cold re-run: %w", err)
		}
		metrics = res.KeyMetrics()
	}
	return checkSameMetrics(fmt.Sprintf("cold re-run of seed %d", pooled.Run.Seed), pooled.Metrics, metrics)
}
