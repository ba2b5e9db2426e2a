package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/core"
	"ethmeasure/internal/logs"
	"ethmeasure/internal/measure"
)

// log-roundtrip: set-up runs campaigns with the transaction workload
// and record retention on. Each operation then writes every campaign's
// records with Campaign.WriteLogs in the default binary format and
// re-analyzes the files the way cmd/ethanalyze does — logs.Reader,
// logs.ChainBuilder and analysis.Collector, then the finalizers.
// Nothing is simulated in the measured phase: it is the paper's own
// log-processing path, encoding beside decoding and analysis.

const (
	logNodes    = 150
	logDuration = 2 * time.Hour
	logRate     = 0.05
	// logVantagePeers raises the primary vantages' adjacency: record
	// volume grows with it while simulation cost barely does.
	logVantagePeers = 120
	// logCampaigns is how many set-up campaigns (distinct seeds) one
	// pass processes. Summing over several seeds steadies the record
	// volume of a pass.
	logCampaigns = 3
)

func logConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = logDuration
	cfg.NumNodes = logNodes
	cfg.Shards = 1
	cfg.RetainRecords = true
	cfg.TxGen.Rate = logRate
	for i := range cfg.Vantages {
		if !cfg.Vantages[i].Auxiliary {
			cfg.Vantages[i].Peers = logVantagePeers
		}
	}
	core.ApplyCapacity(&cfg)
	return cfg
}

// logSource is one set-up campaign and its own streaming results.
type logSource struct {
	c      *core.Campaign
	online *core.Results
	path   string
}

// reanalysis is what cmd/ethanalyze computes from a log file.
type reanalysis struct {
	Propagation *analysis.PropagationResult
	Redundancy  *analysis.RedundancyResult
	FirstObs    *analysis.FirstObservationResult
	PoolGeo     *analysis.PoolGeographyResult
	Commit      *analysis.CommitTimeResult
	Ordering    *analysis.OrderingResult
	Empty       *analysis.EmptyBlocksResult
	Forks       *analysis.ForksResult
	OneMiner    *analysis.OneMinerForksResult
	Sequences   *analysis.SequencesResult
	TxProp      *analysis.TxPropagationResult
}

// passSpans are one pass's per-layer timings, filled only when traced.
type passSpans struct {
	encode, decode, ingest, finalize time.Duration
	bytes                            int64
}

func runLogRoundtrip(opts options) (*report, error) {
	// Every pass writes and re-reads the same set-up campaigns.
	rep := &report{sameWork: true}
	tr := newTracer(opts)
	dir, err := os.MkdirTemp(opts.workdir, "log-roundtrip-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var sources []logSource
	runtime.GC() // as startMeter does, so set-up starts from a clean heap too
	start := time.Now()
	for k := 0; k < logCampaigns; k++ {
		cfg := logConfig(campaignSeed(opts.seed, k))
		buildStart := time.Now()
		c, err := core.NewCampaign(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up campaign: %w", err)
		}
		build := time.Since(buildStart)
		var online *core.Results
		if tr.enabled {
			online, _, err = tracedCampaign(tr, nil, c, build)
		} else {
			online, err = c.Run()
		}
		if err != nil {
			return nil, fmt.Errorf("set-up campaign: %w", err)
		}
		// WriteLogs needs only the records and the chain; the network
		// is dead weight from here on.
		c.ReleaseNetwork()
		// Collect it before the next campaign builds its own.
		runtime.GC()
		sources = append(sources, logSource{c: c, online: online, path: filepath.Join(dir, fmt.Sprintf("campaign-%d.ethlog", k))})
	}
	// One sample for all campaigns: their total varies less from seed
	// to seed than each one does.
	rep.setup = append(rep.setup, time.Since(start))

	// WriteLogs is deterministic, so comparing the records read back
	// with the retained ones once, untimed, covers every pass.
	for _, src := range sources {
		rep.check(checkWrittenRecords(src))
	}

	deadline := time.Now().Add(opts.seconds)
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		traced := tr.enabled && i%2 == 1
		var spans passSpans
		var results []*reanalysis
		records := 0
		meter := startMeter()
		if traced {
			if err := tr.prof.start(); err != nil {
				return nil, err
			}
		}
		for _, src := range sources {
			rep.attempted++
			res, n, err := roundtrip(src, traced, &spans)
			if err != nil {
				rep.failed++
				rep.check(err)
				continue
			}
			records += n
			results = append(results, res)
		}
		rd := meter.stop(records)
		if err := tr.prof.stop(); err != nil {
			return nil, err
		}
		if tr.enabled {
			tr.round(traced, rd)
		}
		if traced {
			traceRoundtrip(tr, spans, records)
		} else {
			rep.rounds = append(rep.rounds, rd)
		}
		if len(results) == len(sources) {
			for k, res := range results {
				rep.check(checkOffline(sources[k].online, res))
			}
		}
	}
	if err := tr.finish(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// roundtrip writes one campaign's log and re-analyzes it. It returns
// the analysis and the number of records that made the trip.
func roundtrip(src logSource, traced bool, spans *passSpans) (*reanalysis, int, error) {
	start := time.Now()
	if err := src.c.WriteLogs(src.path); err != nil {
		return nil, 0, fmt.Errorf("write logs: %w", err)
	}
	if traced {
		spans.encode += time.Since(start)
		if fi, err := os.Stat(src.path); err == nil {
			spans.bytes += fi.Size()
		}
	}
	f, err := os.Open(src.path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	res, n, err := reanalyze(logs.NewReader(f), traced, spans)
	if err != nil {
		return nil, 0, fmt.Errorf("re-analyze %s: %w", src.path, err)
	}
	rec := src.c.Recorder()
	if want := len(rec.Blocks) + len(rec.Txs); n != want {
		return nil, 0, fmt.Errorf("read back %d records from %s, wrote %d", n, src.path, want)
	}
	return res, n, nil
}

// checkWrittenRecords writes one campaign's log and requires every
// record read back to equal the retained one, field by field, in order.
func checkWrittenRecords(src logSource) error {
	if err := src.c.WriteLogs(src.path); err != nil {
		return fmt.Errorf("write logs: %w", err)
	}
	f, err := os.Open(src.path)
	if err != nil {
		return err
	}
	defer f.Close()
	rec := src.c.Recorder()
	return checkRecords(logs.NewReader(f), rec.Blocks, rec.Txs)
}

// checkRecords requires a log's block and tx records to equal
// wantBlocks and wantTxs, in order.
func checkRecords(r *logs.Reader, wantBlocks []measure.BlockRecord, wantTxs []measure.TxRecord) error {
	nb, nt := 0, 0
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("records: %w", err)
		}
		switch e.Kind {
		case logs.KindBlock:
			if nb >= len(wantBlocks) || *e.Block != wantBlocks[nb] {
				return fmt.Errorf("block record %d read back differs from the one written", nb)
			}
			nb++
		case logs.KindTx:
			if nt >= len(wantTxs) || *e.Tx != wantTxs[nt] {
				return fmt.Errorf("tx record %d read back differs from the one written", nt)
			}
			nt++
		}
	}
	if nb != len(wantBlocks) || nt != len(wantTxs) {
		return fmt.Errorf("read back %d block and %d tx records, wrote %d and %d", nb, nt, len(wantBlocks), len(wantTxs))
	}
	return nil
}

// reanalyze streams a log through the chain builder and the collector
// and runs the finalizers, as cmd/ethanalyze does. It returns the
// analysis and the number of block and tx records the log held.
func reanalyze(r *logs.Reader, traced bool, spans *passSpans) (*reanalysis, int, error) {
	var decode, ingest time.Duration
	next := func() (*logs.Entry, error) {
		if !traced {
			return r.Next()
		}
		t0 := time.Now()
		e, err := r.Next()
		decode += time.Since(t0)
		return e, err
	}
	first, err := next()
	if err != nil {
		return nil, 0, fmt.Errorf("first entry: %w", err)
	}
	if first.Kind != logs.KindMeta || first.Meta == nil {
		return nil, 0, fmt.Errorf("log does not start with campaign metadata")
	}
	meta := first.Meta
	ds := &analysis.Dataset{
		Vantages:   meta.Vantages,
		PoolNames:  meta.PoolNames,
		InterBlock: time.Duration(meta.InterBlockNs),
		Duration:   time.Duration(meta.DurationNs),
	}
	var builder logs.ChainBuilder
	proto, err := logs.ProtocolFromMeta(meta)
	if err != nil {
		return nil, 0, err
	}
	builder.Protocol = proto
	col := analysis.NewCollector(ds, meta.RedundancyVantage)
	nb, nt := 0, 0
	for {
		e, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		switch e.Kind {
		case logs.KindBlock:
			col.RecordBlock(*e.Block)
			nb++
		case logs.KindTx:
			col.RecordTx(*e.Tx)
			nt++
		case logs.KindChain:
			if err := builder.Add(e.Chain); err != nil {
				return nil, 0, err
			}
		}
		if traced {
			ingest += time.Since(t0)
		}
	}
	ds.Chain = builder.Registry()
	if ds.Chain == nil {
		return nil, 0, fmt.Errorf("log has no chain dump")
	}

	start := time.Now()
	res := &reanalysis{}
	if res.Propagation, err = col.Propagation(); err != nil {
		return nil, 0, err
	}
	if meta.RedundancyVantage != "" {
		if res.Redundancy, err = col.Redundancy(meta.NetworkSize); err != nil {
			return nil, 0, err
		}
	}
	res.FirstObs = col.FirstObservation()
	res.PoolGeo = col.PoolGeography(15)
	if nt > 0 {
		res.Commit = col.Commit()
		res.Ordering = col.Ordering()
		res.TxProp = col.TxPropagation()
	}
	res.Empty = analysis.EmptyBlocks(ds, 15)
	res.Forks = analysis.Forks(ds)
	res.OneMiner = analysis.OneMinerForks(ds, res.Forks)
	res.Sequences = analysis.Sequences(ds, 6)
	if traced {
		spans.decode += decode
		spans.ingest += ingest
		spans.finalize += time.Since(start)
	}
	return res, nb + nt, nil
}

// checkOffline requires the re-analysis of a log to equal the streaming
// results its campaign computed while it ran (offline ≡ online).
func checkOffline(online *core.Results, off *reanalysis) error {
	pairs := []struct {
		name      string
		on, offln any
	}{
		{"propagation", online.Propagation, off.Propagation},
		{"redundancy", online.Redundancy, off.Redundancy},
		{"first observation", online.FirstObs, off.FirstObs},
		{"pool geography", online.PoolGeo, off.PoolGeo},
		{"commit", online.Commit, off.Commit},
		{"ordering", online.Ordering, off.Ordering},
		{"empty blocks", online.Empty, off.Empty},
		{"forks", online.Forks, off.Forks},
		{"one-miner forks", online.OneMiner, off.OneMiner},
		{"sequences", online.Sequences, off.Sequences},
		{"tx propagation", online.TxProp, off.TxProp},
	}
	for _, p := range pairs {
		if !sameValue(reflect.ValueOf(p.on), reflect.ValueOf(p.offln)) {
			return fmt.Errorf("offline %s analysis differs from the campaign's own", p.name)
		}
	}
	return nil
}

// traceRoundtrip records one traced pass's spans.
func traceRoundtrip(tr *tracer, s passSpans, records int) {
	n := float64(records)
	tr.add("logs.encode_s", s.encode.Seconds())
	tr.add("logs.decode_s", s.decode.Seconds())
	tr.add("logs.bytes", float64(s.bytes))
	tr.add("logs.encode_ns_per_record", float64(s.encode.Nanoseconds())/n)
	tr.add("logs.decode_ns_per_record", float64(s.decode.Nanoseconds())/n)
	tr.add("analysis.ingest_s", s.ingest.Seconds())
	tr.add("analysis.finalize_s", s.finalize.Seconds())
	tr.add("analysis.ns_per_record", float64((s.ingest+s.finalize).Nanoseconds())/n)
}

// sameValue is reflect.DeepEqual for analysis results: NaN equals NaN
// (an undefined statistic is undefined both ways) and func fields,
// which results carry as convenience accessors, are skipped.
func sameValue(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() {
		return false
	}
	if !a.IsValid() {
		return true
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Func:
		return true
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() {
			return false
		}
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			v := b.MapIndex(k)
			if !v.IsValid() || !sameValue(a.MapIndex(k), v) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}
