package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ethmeasure/internal/core"
	"ethmeasure/internal/types"
)

// tx-gossip: one campaign per operation, with the paper's pool
// population and the transaction workload at a few hundred nodes. Full
// transactions flood every edge, so the p2p tx path (known-tx sets,
// relay) dominates; the log layer does nothing here.

const (
	txGossipNodes    = 200
	txGossipDuration = 6 * time.Minute
	txGossipRate     = 0.5 // arrival events per second, before bursts
	// txCoverageMargin is how long before the horizon a transaction
	// must be created for every primary vantage to be sure to see it.
	txCoverageMargin = 30 * time.Second
	// setupBuilds is how many times an operation builds its campaign
	// to time the set-up.
	setupBuilds = 6
)

func txGossipConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = txGossipDuration
	cfg.NumNodes = txGossipNodes
	cfg.Shards = 1
	cfg.RetainRecords = false
	cfg.TxGen.Rate = txGossipRate
	core.ApplyCapacity(&cfg)
	// No mempool-floor filler: it tops the pools up after every block,
	// which ties the transaction count — and so the cost of an
	// operation — to the block count, a Poisson count with only a few
	// events per operation. Market traffic alone keeps the tx path busy.
	cfg.TxGen.MempoolFloor = 0
	return cfg
}

// campaignSeed derives the seed of operation i of a run from the run's
// seed, so a run's inputs depend on its seed alone and consecutive
// operations draw fresh campaigns (the median then spans seeds as well
// as host noise).
func campaignSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

func runTxGossip(opts options) (*report, error) {
	rep := &report{}
	tr := newTracer(opts)
	deadline := time.Now().Add(opts.seconds)
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		cfg := txGossipConfig(campaignSeed(opts.seed, i))
		traced := tr.enabled && i%2 == 1

		// One build takes about 10 ms and varies by a third from one to
		// the next, so each operation times setupBuilds builds of its
		// campaign, each from a clean heap as startMeter gives, and runs
		// the last.
		var c *core.Campaign
		var err error
		for b := 0; b < setupBuilds && err == nil; b++ {
			runtime.GC()
			start := time.Now()
			c, err = core.NewCampaign(cfg)
			rep.setup = append(rep.setup, time.Since(start))
		}
		rep.attempted++
		if err != nil {
			rep.failed++
			continue
		}
		primary := cfg.PrimaryVantages()
		t := newTap(primary, cfg.RedundancyVantage)
		c.AttachRecorder(t)

		var res *core.Results
		var rd round
		if traced {
			res, rd, err = tracedCampaign(tr, &tr.prof, c, rep.setup[len(rep.setup)-1])
		} else {
			m := startMeter()
			res, err = c.Run()
			if err == nil {
				rd = m.stop(res.Stats.BlockRecords + res.Stats.TxRecords)
			}
		}
		if err != nil {
			rep.failed++
			continue
		}
		if tr.enabled {
			tr.round(traced, rd)
		}
		if !traced {
			rep.rounds = append(rep.rounds, rd)
		}
		rep.check(checkTxGossip(cfg, c, res, t))
	}
	if err := tr.finish(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// tracedCampaign runs one campaign with spans around the core phases
// and the engine's queue depth sampled every virtual second, under the
// CPU profiler when prof is not nil.
func tracedCampaign(tr *tracer, prof *profiler, c *core.Campaign, build time.Duration) (*core.Results, round, error) {
	pending := 0
	opts := core.RunOptions{
		ProgressInterval: time.Second,
		Progress: func(core.Progress) {
			if p := c.Engine().Pending(); p > pending {
				pending = p
			}
		},
	}
	m := startMeter()
	if prof != nil {
		if err := prof.start(); err != nil {
			return nil, round{}, err
		}
	}
	simStart := time.Now()
	err := c.SimulateContext(context.Background(), opts)
	simWall := time.Since(simStart)
	var res *core.Results
	if err == nil {
		anStart := time.Now()
		res, err = c.Analyze()
		tr.add("core.analyze_s", time.Since(anStart).Seconds())
	}
	var rd round
	if err == nil {
		rd = m.stop(res.Stats.BlockRecords + res.Stats.TxRecords)
	}
	if prof != nil {
		if perr := prof.stop(); perr != nil {
			return nil, round{}, perr
		}
	}
	if err != nil {
		return nil, round{}, err
	}
	st := res.Stats
	tr.add("core.build_s", build.Seconds())
	tr.add("core.simulate_s", simWall.Seconds())
	tr.add("sim.events", float64(st.Events))
	tr.add("sim.ns_per_event", float64(simWall.Nanoseconds())/float64(st.Events))
	tr.add("sim.pending_max", float64(pending))
	tr.add("simnet.messages", float64(st.Messages))
	tr.add("mining.blocks", float64(c.Miner().Mined()))
	tr.add("mining.siblings", float64(c.Miner().Siblings()))
	tr.add("chain.blocks", float64(c.Registry().Len()))
	tr.add("txgen.txs", float64(st.TxsCreated))
	tr.add("measure.block_records", float64(st.BlockRecords))
	tr.add("measure.tx_records", float64(st.TxRecords))
	return res, rd, nil
}

// checkTxGossip runs the tx-gossip output checks on one campaign.
func checkTxGossip(cfg core.Config, c *core.Campaign, res *core.Results, t *tap) error {
	if err := checkRedundancy(t, res.Redundancy); err != nil {
		return err
	}
	if err := checkFirstObs(t, cfg.PrimaryVantages(), res.FirstObs); err != nil {
		return err
	}
	var txs []createdTx
	market := 0
	c.Store().All(func(tx *types.Transaction) bool {
		txs = append(txs, createdTx{hash: tx.Hash, created: tx.Created})
		// Accounts 1..NumAccounts send market traffic; the mempool
		// floor's filler accounts come after them.
		if int(tx.Sender) <= cfg.TxGen.NumAccounts {
			market++
		}
		return true
	})
	if err := checkTxCoverage(t, txs, cfg.Duration, txCoverageMargin); err != nil {
		return err
	}
	// Blocks: a Poisson process at the configured interval, plus the
	// one-miner siblings a pool adds on top.
	miner := c.Miner()
	if res.Stats.BlocksCreated != miner.Mined() {
		return fmt.Errorf("blocks: registry holds %d, miner produced %d", res.Stats.BlocksCreated, miner.Mined())
	}
	expBlocks := cfg.Duration.Seconds() / cfg.Mining.InterBlockTime.Seconds()
	if err := checkCount("blocks", miner.Mined()-miner.Siblings(), expBlocks, expBlocks); err != nil {
		return err
	}
	// Market transactions: arrival events are Poisson at Rate; each is
	// one transaction, or with BurstProb a burst of 2+G with G geometric
	// of mean BurstMeanExtra. A compound Poisson count has variance
	// λT·E[X²].
	g := cfg.TxGen
	events := g.Rate * cfg.Duration.Seconds()
	m := g.BurstMeanExtra
	ex := 1 + g.BurstProb*(1+m)
	ex2 := (1 - g.BurstProb) + g.BurstProb*(4+4*m+m+2*m*m)
	return checkCount("market txs", market, events*ex, events*ex2)
}
