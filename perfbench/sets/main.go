// Command sets runs several sets of the benchmark and prints, for each
// set, the median and quartiles of every metric per workload, so the
// bounds in BENCHMARK.json can be re-derived on another host. It takes
// the command, the run length and the workloads from BENCHMARK.json at
// the root of the checkout. Run it from the benchmark's module:
//
//	cd perfbench && go run ./sets -root .. -sets 2 -seeds 1-10
//
// Within a set every workload runs once per seed, workloads interleaved
// seed by seed so a drift in host speed spreads over all of them. The
// spread column is (Q3-Q1)/median, with the quartiles of Python's
// statistics.quantiles(values, n=4); the last table compares the sets'
// medians.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchmark is the part of BENCHMARK.json the sets are run from.
type benchmark struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmark(root string) (*benchmark, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bm benchmark
	if err := json.Unmarshal(b, &bm); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(bm.Command) == 0 || bm.RunSeconds < 1 || len(bm.Workloads) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json: needs a command, run_seconds and workloads")
	}
	return &bm, nil
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sets:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		root     = flag.String("root", "..", "root of the checkout that holds BENCHMARK.json")
		sets     = flag.Int("sets", 2, "number of sets")
		seedSpec = flag.String("seeds", "1-10", "seeds of one set: a range lo-hi or a comma list")
	)
	flag.Parse()
	seeds, err := parseSeeds(*seedSpec)
	if err != nil {
		return err
	}
	bm, err := readBenchmark(*root)
	if err != nil {
		return err
	}
	names := make([]string, len(bm.Workloads))
	for i, w := range bm.Workloads {
		names[i] = w.Name
	}

	// values[set][workload][metric] -> one value per seed
	values := make([]map[string]map[string][]float64, *sets)
	units := make(map[string]string)
	for s := 0; s < *sets; s++ {
		values[s] = make(map[string]map[string][]float64)
		for _, seed := range seeds {
			for _, w := range names {
				args := append([]string(nil), bm.Command[1:]...)
				args = append(args, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.Itoa(bm.RunSeconds), "--trace", "0")
				cmd := exec.Command(bm.Command[0], args...)
				cmd.Dir = *root
				var stdout bytes.Buffer
				cmd.Stdout = &stdout
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("set %d, %s, seed %d: %w", s+1, w, seed, err)
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return fmt.Errorf("set %d, %s, seed %d: last line is not a result: %w", s+1, w, seed, err)
				}
				if !res.Correct {
					return fmt.Errorf("set %d, %s, seed %d: a check failed", s+1, w, seed)
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d: attempted %d failed %d\n", s+1, w, seed, res.Attempted, res.Failed)
				if values[s][w] == nil {
					values[s][w] = make(map[string][]float64)
				}
				for m, v := range res.Metrics {
					values[s][w][m] = append(values[s][w][m], v.Value)
					units[m] = v.Unit
				}
			}
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "set\tworkload\tmetric\tunit\tmedian\tQ1\tQ3\tspread %\t")
	for s := range values {
		for _, w := range names {
			for _, m := range sortedKeys(values[s][w]) {
				xs := values[s][w][m]
				q1, q3 := quartiles(xs)
				md := median(xs)
				fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.2f\t\n", s+1, w, m, units[m], md, q1, q3, 100*(q3-q1)/md)
			}
		}
	}
	tw.Flush()
	if *sets < 2 {
		return nil
	}
	fmt.Println()
	tw = tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tlargest/smallest set median - 1, %\t")
	for _, w := range names {
		for _, m := range sortedKeys(values[0][w]) {
			lo, hi := math.Inf(1), math.Inf(-1)
			for s := range values {
				md := median(values[s][w][m])
				lo, hi = math.Min(lo, md), math.Max(hi, md)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t\n", w, m, 100*(hi/lo-1))
		}
	}
	return tw.Flush()
}

func parseSeeds(spec string) ([]int64, error) {
	if lo, hi, ok := strings.Cut(spec, "-"); ok {
		a, err1 := strconv.ParseInt(lo, 10, 64)
		b, err2 := strconv.ParseInt(hi, 10, 64)
		if err1 != nil || err2 != nil || b < a {
			return nil, fmt.Errorf("bad seed range %q", spec)
		}
		var out []int64
		for s := a; s <= b; s++ {
			out = append(out, s)
		}
		return out, nil
	}
	var out []int64
	for _, f := range strings.Split(spec, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		out = append(out, s)
	}
	return out, nil
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles follows Python's statistics.quantiles(xs, n=4), whose
// default method is "exclusive".
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}
