package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// TestWorkloadsEmitContract drives every workload, untraced and traced,
// at toy size (a 4×5 program, two operations, one ladder step) and checks
// that each emits every metric BENCHMARK.json names, with its unit, and
// that no operation failed.
func TestWorkloadsEmitContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}

	for _, trace := range []bool{false, true} {
		want := bench.EndToEnd
		if trace {
			want = bench.PerLayer
		}
		for _, w := range workloads {
			o := opts{seed: 1, seconds: 1, trace: trace, jobs: runtime.NumCPU(), work: t.TempDir(), toy: true}
			r, err := runWorkload(context.Background(), w, o)
			if err != nil {
				t.Fatalf("%s (trace=%v): %v", w.name, trace, err)
			}
			if r.Failed != 0 || r.Metrics["error_frac"].Value != 0 {
				t.Errorf("%s (trace=%v): %d of %d operations failed: %v", w.name, trace, r.Failed, r.Attempted, r.Errors)
			}
			got := r.contract()
			if len(got) != len(want) {
				t.Errorf("%s (trace=%v): %d contract metrics, BENCHMARK.json lists %d", w.name, trace, len(got), len(want))
			}
			for _, m := range want {
				g, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace=%v): no %s", w.name, trace, m.Name)
				case g.Unit != m.Unit:
					t.Errorf("%s (trace=%v): %s in %s, BENCHMARK.json says %s", w.name, trace, m.Name, g.Unit, m.Unit)
				}
			}
		}
	}
}

// TestRelSpreadMatchesPythonQuartiles pins the quartile method -compare
// shares with Python's statistics.quantiles(values, n=4).
func TestRelSpreadMatchesPythonQuartiles(t *testing.T) {
	// quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5.
	if got := relSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("relSpread(1..10) = %v, want 1", got)
	}
	// quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]; median 2.
	if got := relSpread([]float64{4, 1, 2}); got != 1.5 {
		t.Errorf("relSpread(1, 2, 4) = %v, want 1.5", got)
	}
}
