package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/core"
	"ethmeasure/internal/logs"
	"ethmeasure/internal/measure"
	"ethmeasure/internal/sweep"
)

// Each check is shown to pass on the program's real output and to fail
// on a corrupted copy of its input: a dropped record, a shifted
// arrival, a perturbed aggregate. A check that cannot fail proves
// nothing.

// tinyCampaign runs a small retained-record campaign for the tests.
func tinyCampaign(t *testing.T, seed int64) (core.Config, *core.Campaign, *core.Results) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = 3 * time.Minute
	cfg.NumNodes = 40
	cfg.OutDegree = 4
	cfg.Shards = 1
	for i := range cfg.Vantages {
		if cfg.Vantages[i].Peers > 20 {
			cfg.Vantages[i].Peers = 20
		}
	}
	core.ApplyCapacity(&cfg)
	c, err := core.NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return cfg, c, res
}

// replay feeds retained records into a fresh tap.
func replay(cfg core.Config, blocks []measure.BlockRecord, txs []measure.TxRecord) *tap {
	tp := newTap(cfg.PrimaryVantages(), cfg.RedundancyVantage)
	for _, r := range blocks {
		tp.RecordBlock(r)
	}
	for _, r := range txs {
		tp.RecordTx(r)
	}
	return tp
}

func TestTxGossipChecks(t *testing.T) {
	cfg, c, res := tinyCampaign(t, 7)
	blocks, txs := c.Recorder().Blocks, c.Recorder().Txs
	if err := checkTxGossip(cfg, c, res, replay(cfg, blocks, txs)); err != nil {
		t.Fatalf("checks fail on the program's own output: %v", err)
	}

	t.Run("dropped redundancy record", func(t *testing.T) {
		i := indexOf(blocks, func(r measure.BlockRecord) bool { return r.Vantage == cfg.RedundancyVantage && r.Kind == "block" })
		dropped := append(append([]measure.BlockRecord(nil), blocks[:i]...), blocks[i+1:]...)
		if checkRedundancy(replay(cfg, dropped, txs), res.Redundancy) == nil {
			t.Fatal("redundancy check passed with a record dropped")
		}
	})

	t.Run("shifted first arrival", func(t *testing.T) {
		// Move every record of one block's first observer after all
		// other vantages' records: the block's first observer changes.
		tp := replay(cfg, blocks, txs)
		var target *firstSeen
		for _, fs := range tp.blockOrder {
			if len(fs.at) >= 2 {
				target = fs
				break
			}
		}
		if target == nil {
			t.Fatal("no block seen by two vantages")
		}
		var hash, late = blocks[0].Hash, time.Duration(0)
		for h, fs := range tp.blocks {
			if fs == target {
				hash = h
			}
		}
		for _, r := range blocks {
			if r.Hash == hash && r.At > late {
				late = r.At
			}
		}
		first := cfg.PrimaryVantages()[target.first]
		shifted := append([]measure.BlockRecord(nil), blocks...)
		for i := range shifted {
			if shifted[i].Hash == hash && shifted[i].Vantage == first {
				shifted[i].At = late + time.Second
			}
		}
		if checkFirstObs(replay(cfg, shifted, txs), cfg.PrimaryVantages(), res.FirstObs) == nil {
			t.Fatal("first-observation check passed with an arrival shifted")
		}
	})

	t.Run("dropped tx record", func(t *testing.T) {
		i := indexOf(txs, func(r measure.TxRecord) bool { return r.At < time.Minute })
		dropped := append(append([]measure.TxRecord(nil), txs[:i]...), txs[i+1:]...)
		if checkTxGossip(cfg, c, res, replay(cfg, blocks, dropped)) == nil {
			t.Fatal("tx coverage check passed with a record dropped")
		}
	})

	t.Run("perturbed Table II", func(t *testing.T) {
		red := *res.Redundancy
		red.Combined.Avg += 1e-6
		if checkRedundancy(replay(cfg, blocks, txs), &red) == nil {
			t.Fatal("redundancy check passed with the mean perturbed")
		}
	})
}

func indexOf[T any](xs []T, pred func(T) bool) int {
	for i, x := range xs {
		if pred(x) {
			return i
		}
	}
	panic("no element matches")
}

func TestCheckCount(t *testing.T) {
	if err := checkCount("blocks", 18, 18, 18); err != nil {
		t.Fatal(err)
	}
	if checkCount("blocks", 18+int(poissonZ*math.Sqrt(18))+1, 18, 18) == nil {
		t.Fatal("count beyond the bound passed")
	}
	if checkCount("txs", 0, 400, 400) == nil {
		t.Fatal("count far below the mean passed")
	}
}

func TestCheckAggregate(t *testing.T) {
	var runs []sweep.RunResult
	for i, v := range []float64{0.11, 0.13, 0.17, 0.12} {
		runs = append(runs, sweep.RunResult{
			Run:     sweep.Run{Index: i, Scenario: "base", Seed: int64(i + 1)},
			Metrics: analysis.KeyMetrics{"fork_rate": v, "empty_share": 1 - v, "undefined": math.NaN()},
		})
	}
	agg := sweep.Aggregate(runs)
	if err := checkAggregate(runs, agg); err != nil {
		t.Fatalf("aggregate check fails on the program's output: %v", err)
	}
	perturb := func(f func(*sweep.MetricSummary)) *sweep.AggregateResult {
		cp := *agg
		cp.Scenarios = append([]sweep.ScenarioSummary(nil), agg.Scenarios...)
		cp.Scenarios[0].Metrics = append([]sweep.MetricSummary(nil), agg.Scenarios[0].Metrics...)
		f(&cp.Scenarios[0].Metrics[1])
		return &cp
	}
	for name, bad := range map[string]*sweep.AggregateResult{
		"mean": perturb(func(m *sweep.MetricSummary) { m.Mean += 1e-6 }),
		"ci95": perturb(func(m *sweep.MetricSummary) { m.CI95 *= 1.001 }),
		"max":  perturb(func(m *sweep.MetricSummary) { m.Max += 1e-9 }),
		"n":    perturb(func(m *sweep.MetricSummary) { m.N-- }),
	} {
		if checkAggregate(runs, bad) == nil {
			t.Errorf("aggregate check passed with a perturbed %s", name)
		}
	}
	if checkAggregate(runs[:3], agg) == nil {
		t.Error("aggregate check passed with a run dropped")
	}
}

func TestCheckSameMetrics(t *testing.T) {
	a := analysis.KeyMetrics{"fork_rate": 0.1, "undefined": math.NaN()}
	b := analysis.KeyMetrics{"fork_rate": 0.1, "undefined": math.NaN()}
	if err := checkSameMetrics("cold", a, b); err != nil {
		t.Fatal(err)
	}
	b["fork_rate"] = math.Nextafter(0.1, 1)
	if checkSameMetrics("cold", a, b) == nil {
		t.Fatal("metrics one ulp apart compared equal")
	}
	delete(b, "fork_rate")
	b["other"] = 0.1
	if checkSameMetrics("cold", a, b) == nil {
		t.Fatal("metrics with different names compared equal")
	}
}

func TestLogRoundtripChecks(t *testing.T) {
	_, c, online := tinyCampaign(t, 11)
	path := filepath.Join(t.TempDir(), "campaign.ethlog")
	if err := c.WriteLogs(path); err != nil {
		t.Fatal(err)
	}
	blocks, txs := c.Recorder().Blocks, c.Recorder().Txs
	open := func() *logs.Reader {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return logs.NewReader(f)
	}
	off, n, err := reanalyze(open(), false, &passSpans{})
	if err != nil {
		t.Fatalf("re-analysis fails on the program's own log: %v", err)
	}
	if n != len(blocks)+len(txs) {
		t.Fatalf("re-analysis read %d records, the campaign retained %d", n, len(blocks)+len(txs))
	}
	if err := checkOffline(online, off); err != nil {
		t.Fatalf("offline check fails on the program's own results: %v", err)
	}
	if err := checkRecords(open(), blocks, txs); err != nil {
		t.Fatalf("record check fails on the program's own log: %v", err)
	}

	if checkRecords(open(), blocks[1:], txs) == nil {
		t.Error("record check passed with a block record dropped")
	}
	if checkRecords(open(), blocks, txs[:len(txs)-1]) == nil {
		t.Error("record check passed with the last tx record dropped")
	}
	shifted := append([]measure.TxRecord(nil), txs...)
	shifted[len(shifted)/2].At += time.Millisecond
	if checkRecords(open(), blocks, shifted) == nil {
		t.Error("record check passed with a tx arrival shifted")
	}

	bad := *online
	fo := *online.FirstObs
	fo.UncertainShare += 1e-9
	bad.FirstObs = &fo
	if checkOffline(&bad, off) == nil {
		t.Error("offline check passed with a perturbed online result")
	}
}

func TestSameValue(t *testing.T) {
	type row struct {
		X  float64
		F  func() int
		M  map[string]float64
		Xs []int
	}
	a := row{X: math.NaN(), F: func() int { return 1 }, M: map[string]float64{"a": 1}, Xs: []int{1}}
	b := row{X: math.NaN(), F: func() int { return 2 }, M: map[string]float64{"a": 1}, Xs: []int{1}}
	if !sameValue(reflect.ValueOf(a), reflect.ValueOf(b)) {
		t.Fatal("NaN fields or func fields made equal rows differ")
	}
	b.M["a"] = 2
	if sameValue(reflect.ValueOf(a), reflect.ValueOf(b)) {
		t.Fatal("rows with different map values compared equal")
	}
}
