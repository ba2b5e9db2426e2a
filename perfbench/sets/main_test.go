package main

import "testing"

// The quartiles must match Python's statistics.quantiles(xs, n=4), the
// definition the benchmark's bounds are stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25}, // Python extrapolates at the edges
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("3-5")
	if err != nil || len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("parseSeeds(3-5) = %v, %v", got, err)
	}
	if got, err := parseSeeds("7,42"); err != nil || len(got) != 2 || got[1] != 42 {
		t.Fatalf("parseSeeds(7,42) = %v, %v", got, err)
	}
	if _, err := parseSeeds("5-3"); err == nil {
		t.Fatal("reversed range accepted")
	}
}

// The sets run from the repository's own BENCHMARK.json.
func TestReadBenchmark(t *testing.T) {
	bm, err := readBenchmark("../..")
	if err != nil {
		t.Fatal(err)
	}
	if bm.Command[0] != "bash" || bm.RunSeconds < 1 || len(bm.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json read as %+v", bm)
	}
	if _, err := readBenchmark(t.TempDir()); err == nil {
		t.Fatal("a directory without BENCHMARK.json was accepted")
	}
}
