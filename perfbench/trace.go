package main

import "sort"

// layerUnits lists every per-layer metric with its unit, in the order
// the README's layer map gives them. A traced run of any workload
// prints all of them; a layer the workload does not exercise reads 0.
var layerUnits = []struct{ name, unit string }{
	{"core.build_s", "s"},
	{"core.simulate_s", "s"},
	{"core.analyze_s", "s"},
	{"sweep.run_s", "s"},
	{"sweep.sim_s", "s"},
	{"sweep.overhead_s", "s"},
	{"sweep.aggregate_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.pending_max", "count"},
	{"simnet.messages", "count"},
	{"mining.blocks", "count"},
	{"mining.siblings", "count"},
	{"chain.blocks", "count"},
	{"txgen.txs", "count"},
	{"measure.block_records", "count"},
	{"measure.tx_records", "count"},
	{"logs.encode_s", "s"},
	{"logs.decode_s", "s"},
	{"logs.bytes", "bytes"},
	{"logs.encode_ns_per_record", "ns"},
	{"logs.decode_ns_per_record", "ns"},
	{"analysis.ingest_s", "s"},
	{"analysis.finalize_s", "s"},
	{"analysis.ns_per_record", "ns"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"trace.overhead_pct", "%"},
}

// profiledModules are the program packages whose self CPU a traced run
// reports as cpu.<module>_s. Program packages outside the list are
// summed into cpu.other_s; the benchmark's own frames (output checks,
// span bookkeeping) into cpu.bench_s; samples with no program frame
// into cpu.runtime_s.
var profiledModules = []string{
	"sim", "simnet", "p2p", "hashset", "mining", "chain", "consensus",
	"txgen", "txpool", "measure", "logs", "analysis", "core", "sweep",
	"geo", "types", "rlp", "stats",
}

// tracer gathers a traced run's per-layer samples. Operations alternate
// between untraced and traced, so the overhead of tracing is measured
// against interleaved untraced operations under the same host load.
type tracer struct {
	enabled bool
	prof    profiler
	samples map[string][]float64
	plain   []float64 // wall seconds of untraced operations
	traced  []float64 // wall seconds of traced operations
}

func newTracer(opts options) *tracer {
	return &tracer{enabled: opts.trace, prof: profiler{keepDir: opts.profDir}, samples: make(map[string][]float64)}
}

// add records one sample of a per-layer metric; the run reports the
// median.
func (t *tracer) add(name string, v float64) {
	t.samples[name] = append(t.samples[name], v)
}

// round notes one finished operation.
func (t *tracer) round(traced bool, rd round) {
	if !traced {
		t.plain = append(t.plain, rd.wall.Seconds())
		return
	}
	t.traced = append(t.traced, rd.wall.Seconds())
	t.add("runtime.gc_cycles", float64(rd.gcCycles))
	t.add("runtime.gc_cpu_s", rd.gcCPU)
}

// finish folds the samples into the report's per-layer metrics.
func (t *tracer) finish(rep *report) error {
	if !t.enabled {
		return nil
	}
	if err := t.prof.stop(); err != nil {
		return err
	}
	names := make([]string, 0, len(t.samples))
	for name := range t.samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.layer(name, median(t.samples[name]))
	}
	if p := median(t.plain); p > 0 && len(t.traced) > 0 {
		rep.layer("trace.overhead_pct", 100*(median(t.traced)/p-1))
	}
	// Self CPU per traced operation.
	n := float64(len(t.traced))
	if n == 0 {
		return nil
	}
	known := map[string]bool{"runtime": true, "bench": true}
	for _, m := range profiledModules {
		known[m] = true
		rep.layer("cpu."+m+"_s", t.prof.seconds[m]/n)
	}
	rep.layer("cpu.runtime_s", t.prof.seconds["runtime"]/n)
	rep.layer("cpu.bench_s", t.prof.seconds["bench"]/n)
	other := 0.0
	for m, s := range t.prof.seconds {
		if !known[m] {
			other += s
		}
	}
	rep.layer("cpu.other_s", other/n)
	return nil
}

// cpuLayers lists the cpu.<module>_s metrics finish reports.
func cpuLayers() []string {
	out := make([]string, 0, len(profiledModules)+3)
	for _, m := range profiledModules {
		out = append(out, "cpu."+m+"_s")
	}
	return append(out, "cpu.runtime_s", "cpu.bench_s", "cpu.other_s")
}

// layerMetrics renders every per-layer metric; ones the workload did
// not produce read 0.
func layerMetrics(rep *report) map[string]metric {
	out := make(map[string]metric, len(layerUnits)+len(profiledModules)+3)
	for _, l := range layerUnits {
		out[l.name] = metric{rep.layers[l.name], l.unit}
	}
	for _, name := range cpuLayers() {
		out[name] = metric{rep.layers[name], "s"}
	}
	return out
}
