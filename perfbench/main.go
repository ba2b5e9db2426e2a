// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator's Go API on three workloads, checks every output against
// values it computes itself, and prints one JSON line of metrics:
//
//	perfbench -workload tx-gossip -seed 1 -seconds 25 -trace 0
//
// With -trace 0 the line holds the end-to-end metrics (set-up, wall and
// CPU time, records per second, memory); with -trace 1 it holds the
// per-layer metrics: spans around each module's public calls, the
// layers' own counters, and self CPU per module from a profile of this
// process. run.sh builds and runs it from the root of a checkout; the
// README describes the workloads, the metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workdir string // directory for temporary log files
	profDir string // where a traced run keeps its raw CPU profiles; "" keeps none
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*report, error){
	"tx-gossip":     runTxGossip,
	"blocks-sweep":  runBlocksSweep,
	"log-roundtrip": runLogRoundtrip,
}

// minRounds keeps the averages meaningful when one operation outlasts
// the requested run length.
const minRounds = 3

// report is what a workload hands back: set-up timings, per-operation
// costs, operation counts, check failures and, in a traced run, the
// per-layer metrics.
type report struct {
	setup  []time.Duration
	rounds []round
	// sameWork marks a workload whose operations all do the same work:
	// a median over them then has no seed noise to average out, and it
	// drops the operations a busy host slowed.
	sameWork  bool
	attempted int
	failed    int
	problems  []string
	layers    map[string]float64
}

// check records a failed output check; nil passes.
func (r *report) check(err error) {
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
}

// layer sets one per-layer metric.
func (r *report) layer(name string, v float64) {
	if r.layers == nil {
		r.layers = make(map[string]float64)
	}
	r.layers[name] = v
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), " | "))
		seed    = fs.Int64("seed", 1, "seed every campaign input is derived from")
		secs    = fs.Int("seconds", 0, "length of the measured phase in seconds (required)")
		trace   = fs.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
		workdir = fs.String("workdir", os.TempDir(), "directory for temporary log files")
		profDir = fs.String("cpuprofile-dir", "", "with -trace 1, write each profiled operation's CPU profile into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	drive, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *secs < 1 {
		return fmt.Errorf("-seconds is required and must be at least 1, got %d", *secs)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	opts := options{seed: *seed, seconds: time.Duration(*secs) * time.Second, trace: *trace == 1, workdir: *workdir, profDir: *profDir}
	rep, err := drive(opts)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *name, p)
	}
	out := output{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
	}
	if opts.trace {
		out.Metrics = layerMetrics(rep)
	} else {
		out.Metrics = endToEnd(rep)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// endToEnd folds the measured operations into the metrics a user sees.
// Wall and CPU time per operation are medians where every operation
// does the same work (log-roundtrip's passes), so operations a busy host
// slowed drop out. Where the seeds vary each operation's work (a
// tx-gossip campaign's engine events by about 16%) they are means: a
// whole run's work varies by a few percent, so the mean keeps the seeds
// out of the figure where a median of the same operations does not.
// Allocation is a median: a tx-gossip operation allocates in one of two
// modes, about 80 MiB apart, depending on whether its seed's tx count
// makes the per-edge known-tx sets double once more, and the median
// keeps to the common mode. Records per second is the measured phase's
// throughput: all records over all operations' wall time, or with the
// same work per operation, one operation's records over its median
// wall time. Set-up is the median of its samples.
func endToEnd(rep *report) map[string]metric {
	const mib = 1 << 20
	rs := rep.rounds
	perOp := mean
	if rep.sameWork {
		perOp = median
	}
	wall := perOp(field(rs, func(r round) float64 { return r.wall.Seconds() }))
	rate := throughput(rs)
	if rep.sameWork && wall > 0 {
		rate = float64(rs[0].records) / wall
	}
	return map[string]metric{
		"setup_s":       {median(seconds(rep.setup)), "s"},
		"wall_s":        {wall, "s"},
		"cpu_s":         {perOp(field(rs, func(r round) float64 { return r.cpu.Seconds() })), "s"},
		"records_per_s": {rate, "1/s"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
		"alloc_mb":      {median(field(rs, func(r round) float64 { return float64(r.allocBytes) / mib })), "MB"},
		"allocs":        {median(field(rs, func(r round) float64 { return float64(r.allocObjs) })), "count"},
	}
}

// throughput is records per second over all measured operations.
func throughput(rs []round) float64 {
	var records int
	var wall time.Duration
	for _, r := range rs {
		records += r.records
		wall += r.wall
	}
	if wall <= 0 {
		return 0
	}
	return float64(records) / wall.Seconds()
}
