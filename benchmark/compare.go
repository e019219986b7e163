package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// bound is how far a metric may move the wrong way before a change counts
// as a regression.
type bound struct {
	share    float64 // of the first side's median
	higher   bool    // higher is better
	absolute bool    // share is an absolute difference
}

// workloadBounds are the bounds of the metrics only some workloads report.
var workloadBounds = map[string]bound{
	"max_rate_rps": {share: 0.10, higher: true},
	"store_bytes":  {share: 0.01},
	"error_frac":   {share: 0, absolute: true},
}

// deterministic reports whether a metric repeats exactly for a given seed
// and code: such metrics must match exactly, whatever their bound.
func deterministic(name string) bool {
	switch name {
	case "exe_bytes", "cycles_vs_l2", "singleton_refs_vs_l2", "parv.instrs",
		"irgen.ir_instrs", "codegen.instrs", "core.webs", "core.webs_colored",
		"core.clusters", "core.state_bytes":
		return true
	}
	return strings.HasPrefix(name, "cycles.")
}

// runCompare compares two sets of runs, each a comma-separated list of -o
// files, and prints one row per (workload, metric): better, worse, within
// bound, or unresolved when the run-to-run spread is wider than the bound.
// Deterministic metrics read same or changed. It returns 1 when any
// metric is worse or changed.
func runCompare(a, b string, stdout, stderr io.Writer) int {
	bounds, err := loadBounds(filepath.Join(findRoot(), "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	sideA, err := loadSide(a)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	sideB, err := loadSide(b)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}

	code := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tchange\tbound\tverdict")
	for _, wl := range sortedKeys(sideA) {
		runsB, ok := sideB[wl]
		if !ok {
			fmt.Fprintf(stderr, "benchmark: %s: only in %s\n", wl, a)
			continue
		}
		valsA, valsB := metricValues(sideA[wl]), metricValues(runsB)
		for _, name := range sortedKeys(valsA) {
			vb, ok := valsB[name]
			if !ok {
				continue
			}
			row := judge(name, valsA[name], vb, bounds)
			if row.verdict == "worse" || row.verdict == "changed" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\n", wl, name, row.medA, row.medB, row.change, row.bound, row.verdict)
		}
	}
	tw.Flush()
	return code
}

type verdictRow struct {
	medA, medB             float64
	change, bound, verdict string
}

// judge compares one metric's values on the two sides.
func judge(name string, a, b []float64, bounds map[string]bound) verdictRow {
	row := verdictRow{medA: median(a), medB: median(b), change: "-", bound: "-"}
	if row.medA != 0 {
		row.change = fmt.Sprintf("%+.2f%%", 100*(row.medB-row.medA)/math.Abs(row.medA))
	}
	if deterministic(name) {
		row.bound = "exact"
		row.verdict = "same"
		for _, v := range append(append([]float64(nil), a...), b...) {
			if v != a[0] {
				row.verdict = "changed"
			}
		}
		return row
	}
	bd, ok := bounds[name]
	if !ok {
		row.verdict = "no bound"
		return row
	}
	// worse is how far B moved the wrong way, as a share of A's median
	// (or absolutely).
	worse := row.medB - row.medA
	if bd.higher {
		worse = -worse
	}
	if bd.absolute {
		row.bound = fmt.Sprintf("%g", bd.share)
	} else {
		row.bound = fmt.Sprintf("%g%%", 100*bd.share)
		if row.medA == 0 {
			row.verdict = "no base"
			return row
		}
		worse /= math.Abs(row.medA)
	}
	spread := math.Max(relSpread(a), relSpread(b))
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (bd.higher && y <= x) || (!bd.higher && y >= x) {
				allBetter = false
			}
		}
	}
	switch {
	case !bd.absolute && spread > bd.share && !allBetter:
		row.verdict = "unresolved"
	case worse > bd.share:
		row.verdict = "worse"
	case -worse > bd.share || allBetter && spread > bd.share:
		row.verdict = "better"
	default:
		row.verdict = "within bound"
	}
	return row
}

// relSpread is the distance between the first and third quartiles as a
// share of the median, with quartiles as Python's
// statistics.quantiles(values, n=4) computes them.
func relSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json and adds the
// workload-specific ones.
func loadBounds(path string) (map[string]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]bound, len(bf.EndToEnd)+len(workloadBounds))
	for k, v := range workloadBounds {
		out[k] = v
	}
	for _, m := range bf.EndToEnd {
		out[m.Name] = bound{share: m.Bound, higher: m.Better == "higher"}
	}
	return out, nil
}

// loadSide reads a comma-separated list of -o files and groups their runs
// by workload (traced runs apart from untraced ones).
func loadSide(list string) (map[string][]*result, error) {
	out := make(map[string][]*result)
	for _, path := range strings.Split(list, ",") {
		runs, err := readRuns(path)
		if err != nil {
			return nil, err
		}
		for _, r := range runs {
			key := r.Workload
			if r.Trace {
				key += " (traced)"
			}
			out[key] = append(out[key], r)
		}
	}
	return out, nil
}

// metricValues collects each metric's value from every run.
func metricValues(runs []*result) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range runs {
		for name, m := range r.Metrics {
			out[name] = append(out[name], m.Value)
		}
	}
	return out
}
