package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/measure"
	"ethmeasure/internal/sweep"
	"ethmeasure/internal/types"
)

// The checks below recompute the program's outputs from first
// principles — plain maps over the raw records, textbook formulas —
// rather than through the program's own accumulators, so a fault in an
// accumulator cannot pass its own check.

// tap is a record-bus consumer that keeps what the checks need: the
// redundancy vantage's gossip copies per block (Table II), each
// block's earliest arrival per primary vantage (Figure 2), and which
// primary vantages saw each transaction.
type tap struct {
	redVantage string
	primary    map[string]int // primary vantage name -> index

	red      map[types.Hash]*redTally
	redOrder []*redTally

	blocks     map[types.Hash]*firstSeen
	blockOrder []*firstSeen

	txSeen map[types.Hash]uint64 // bit per primary vantage
}

type redTally struct{ ann, full int }

type firstSeen struct {
	at    map[int]time.Duration // vantage index -> earliest local time
	first int                   // vantage of the earliest record; the earlier record wins a tie
	min   time.Duration
}

func newTap(primary []string, redVantage string) *tap {
	t := &tap{
		redVantage: redVantage,
		primary:    make(map[string]int, len(primary)),
		red:        make(map[types.Hash]*redTally),
		blocks:     make(map[types.Hash]*firstSeen),
		txSeen:     make(map[types.Hash]uint64),
	}
	for i, name := range primary {
		t.primary[name] = i
	}
	return t
}

func (t *tap) RecordBlock(r measure.BlockRecord) {
	if r.Vantage == t.redVantage {
		c := t.red[r.Hash]
		if c == nil {
			c = &redTally{}
			t.red[r.Hash] = c
			t.redOrder = append(t.redOrder, c)
		}
		// Table II counts gossip: pushed whole blocks and hash
		// announcements. Bodies fetched on request are not redundant
		// copies.
		switch r.Kind {
		case "announce":
			c.ann++
		case "block":
			c.full++
		}
	}
	vi, ok := t.primary[r.Vantage]
	if !ok {
		return
	}
	fs := t.blocks[r.Hash]
	if fs == nil {
		fs = &firstSeen{at: make(map[int]time.Duration), first: vi, min: r.At}
		t.blocks[r.Hash] = fs
		t.blockOrder = append(t.blockOrder, fs)
	}
	if prev, seen := fs.at[vi]; !seen || r.At < prev {
		fs.at[vi] = r.At
	}
	if r.At < fs.min {
		fs.min, fs.first = r.At, vi
	}
}

func (t *tap) RecordTx(r measure.TxRecord) {
	if vi, ok := t.primary[r.Vantage]; ok {
		t.txSeen[r.Hash] |= 1 << uint(vi)
	}
}

// quantile is the linearly interpolated quantile of sorted xs
// (Hyndman-Fan type 7, the definition Table II is reported in).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// near reports whether two recomputed floats agree up to summation
// order.
func near(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// identical reports exact equality, NaN matching NaN.
func identical(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// checkRedundancy compares Table II with the tap's own tally.
func checkRedundancy(t *tap, got *analysis.RedundancyResult) error {
	if got == nil {
		return fmt.Errorf("redundancy: no Table II result")
	}
	if got.Blocks != len(t.redOrder) {
		return fmt.Errorf("redundancy: %d blocks, recomputed %d", got.Blocks, len(t.redOrder))
	}
	rows := []struct {
		name  string
		row   analysis.RedundancyRow
		count func(*redTally) int
	}{
		{"announcements", got.Announcements, func(c *redTally) int { return c.ann }},
		{"whole blocks", got.WholeBlocks, func(c *redTally) int { return c.full }},
		{"combined", got.Combined, func(c *redTally) int { return c.ann + c.full }},
	}
	for _, r := range rows {
		xs := make([]float64, len(t.redOrder))
		sum := 0.0
		for i, c := range t.redOrder {
			xs[i] = float64(r.count(c))
			sum += xs[i]
		}
		sort.Float64s(xs)
		want := [4]float64{sum / float64(len(xs)), quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.99)}
		have := [4]float64{r.row.Avg, r.row.Median, r.row.Top10, r.row.Top1}
		for i, label := range [4]string{"mean", "median", "p90", "p99"} {
			if !near(have[i], want[i]) {
				return fmt.Errorf("redundancy: %s %s is %v, recomputed %v", r.name, label, have[i], want[i])
			}
		}
	}
	return nil
}

// checkFirstObs compares Figure 2 with the tap's own arrival index:
// among blocks that at least two primary vantages saw, the share each
// vantage saw first, and the share whose runner-up came within the
// 10 ms clock bound.
func checkFirstObs(t *tap, primary []string, got *analysis.FirstObservationResult) error {
	if got == nil {
		return fmt.Errorf("first observation: no Figure 2 result")
	}
	counts := make(map[string]int)
	blocks, uncertain := 0, 0
	for _, fs := range t.blockOrder {
		if len(fs.at) < 2 {
			continue
		}
		blocks++
		counts[primary[fs.first]]++
		second := time.Duration(math.MaxInt64)
		for vi, at := range fs.at {
			if vi != fs.first && at-fs.min < second {
				second = at - fs.min
			}
		}
		if second < 10*time.Millisecond {
			uncertain++
		}
	}
	if got.Blocks != blocks {
		return fmt.Errorf("first observation: %d blocks, recomputed %d", got.Blocks, blocks)
	}
	for _, name := range primary {
		if got.Counts[name] != counts[name] {
			return fmt.Errorf("first observation: %s first for %d blocks, recomputed %d", name, got.Counts[name], counts[name])
		}
		if blocks > 0 && !near(got.Shares[name], float64(counts[name])/float64(blocks)) {
			return fmt.Errorf("first observation: %s share %v, recomputed %v", name, got.Shares[name], float64(counts[name])/float64(blocks))
		}
	}
	if blocks > 0 && !near(got.UncertainShare, float64(uncertain)/float64(blocks)) {
		return fmt.Errorf("first observation: uncertain share %v, recomputed %v", got.UncertainShare, float64(uncertain)/float64(blocks))
	}
	return nil
}

// createdTx is a transaction's identity and creation time.
type createdTx struct {
	hash    types.Hash
	created time.Duration
}

// checkTxCoverage verifies that flooding reached every primary vantage
// with every transaction created at least margin before the horizon.
func checkTxCoverage(t *tap, txs []createdTx, horizon, margin time.Duration) error {
	all := uint64(1)<<uint(len(t.primary)) - 1
	missed, eligible := 0, 0
	var example types.Hash
	for _, tx := range txs {
		if tx.created > horizon-margin {
			continue
		}
		eligible++
		if t.txSeen[tx.hash] != all {
			if missed == 0 {
				example = tx.hash
			}
			missed++
		}
	}
	if eligible == 0 {
		return fmt.Errorf("tx coverage: no transaction created %v before the horizon", margin)
	}
	if missed > 0 {
		return fmt.Errorf("tx coverage: %d of %d transactions missed a primary vantage (e.g. %x)", missed, eligible, example)
	}
	return nil
}

// poissonZ is the half-width, in standard deviations, of the count
// checks: wide enough that a correct generator practically never falls
// outside it, at the counts the workloads produce.
const poissonZ = 6

// checkCount verifies that a random count lies within poissonZ
// standard deviations of its mean.
func checkCount(what string, got int, mean, variance float64) error {
	if d := math.Abs(float64(got) - mean); d > poissonZ*math.Sqrt(variance) {
		return fmt.Errorf("%s: %d, expected %.1f ± %.1f", what, got, mean, poissonZ*math.Sqrt(variance))
	}
	return nil
}

// t95 holds the standard two-sided 95% Student-t critical values for
// 1..10 degrees of freedom (three decimals, as printed in tables).
var t95 = [...]float64{12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228}

// checkAggregate recomputes every scenario metric's mean, extremes and
// 95% confidence half-width from the per-run KeyMetrics and compares
// them with the sweep's aggregate.
func checkAggregate(runs []sweep.RunResult, agg *sweep.AggregateResult) error {
	if agg == nil {
		return fmt.Errorf("aggregate: missing")
	}
	values := make(map[string]map[string][]float64) // scenario -> metric -> per-run values
	for i := range runs {
		if !runs[i].Ok() {
			continue
		}
		sc := runs[i].Run.Scenario
		if values[sc] == nil {
			values[sc] = make(map[string][]float64)
		}
		for name, v := range runs[i].Metrics {
			values[sc][name] = append(values[sc][name], v)
		}
	}
	if len(agg.Scenarios) != len(values) {
		return fmt.Errorf("aggregate: %d scenarios, recomputed %d", len(agg.Scenarios), len(values))
	}
	for _, ss := range agg.Scenarios {
		want := values[ss.Scenario]
		if len(ss.Metrics) != len(want) {
			return fmt.Errorf("aggregate: scenario %s has %d metrics, recomputed %d", ss.Scenario, len(ss.Metrics), len(want))
		}
		for _, ms := range ss.Metrics {
			xs, ok := want[ms.Metric]
			if !ok {
				return fmt.Errorf("aggregate: metric %s is in no run", ms.Metric)
			}
			n := float64(len(xs))
			sum, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
			for _, x := range xs {
				sum += x
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			mean := sum / n
			ci := 0.0
			if len(xs) >= 2 {
				if len(xs)-1 > len(t95) {
					return fmt.Errorf("aggregate: %d seeds per scenario exceeds the check's t table", len(xs))
				}
				ss2 := 0.0
				for _, x := range xs {
					ss2 += (x - mean) * (x - mean)
				}
				ci = t95[len(xs)-2] * math.Sqrt(ss2/(n-1)) / math.Sqrt(n)
			}
			if math.IsNaN(ci) {
				ci = 0 // the aggregate reports an undefined half-width as 0
			}
			switch {
			case ms.N != len(xs):
				return fmt.Errorf("aggregate: %s over %d runs, recomputed %d", ms.Metric, ms.N, len(xs))
			case !near(ms.Mean, mean):
				return fmt.Errorf("aggregate: %s mean %v, recomputed %v", ms.Metric, ms.Mean, mean)
			case !identical(ms.Min, lo) || !identical(ms.Max, hi):
				return fmt.Errorf("aggregate: %s range [%v, %v], recomputed [%v, %v]", ms.Metric, ms.Min, ms.Max, lo, hi)
			case !near(ms.CI95, ci):
				return fmt.Errorf("aggregate: %s CI95 %v, recomputed %v", ms.Metric, ms.CI95, ci)
			case !near(ms.CILo, mean-ci) || !near(ms.CIHi, mean+ci):
				return fmt.Errorf("aggregate: %s interval [%v, %v], recomputed [%v, %v]", ms.Metric, ms.CILo, ms.CIHi, mean-ci, mean+ci)
			}
		}
	}
	return nil
}

// checkSameMetrics requires two KeyMetrics maps to hold the same
// values bit for bit.
func checkSameMetrics(what string, a, b analysis.KeyMetrics) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d metrics against %d", what, len(a), len(b))
	}
	for name, x := range a {
		y, ok := b[name]
		if !ok {
			return fmt.Errorf("%s: metric %s missing", what, name)
		}
		if math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Errorf("%s: metric %s is %v against %v", what, name, x, y)
		}
	}
	return nil
}
