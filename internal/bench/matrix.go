// The strategy matrix: every benchmark × configuration × allocation
// strategy cell of one Run, measured under identical conditions, so the
// paper's priority coloring and the tiling/reuse-interval policy have
// directly comparable cycle counts, each bounded below by the L2
// baseline.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// matrixReport is the stable JSON shape of a strategy sweep.
type matrixReport struct {
	Strategies []string `json:"strategies"`
	Configs    []string `json:"configs"`
	Rows       []*Row   `json:"benchmarks"`
}

// WriteMatrixJSON emits the sweep as indented JSON (BENCH_strategies.json).
func WriteMatrixJSON(w io.Writer, rows []*Row) error {
	rep := matrixReport{Rows: rows}
	rep.Strategies, rep.Configs = axes(rows)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// axes lists the strategies and configurations the rows' cells carry, in
// first-seen order.
func axes(rows []*Row) (strategies, configs []string) {
	seenS := make(map[string]bool)
	seenC := make(map[string]bool)
	for _, r := range rows {
		for _, c := range r.Cells {
			if !seenS[c.Strategy] {
				seenS[c.Strategy] = true
				strategies = append(strategies, c.Strategy)
			}
			if !seenC[c.Config] {
				seenC[c.Config] = true
				configs = append(configs, c.Config)
			}
		}
	}
	return strategies, configs
}

// WriteMatrixTable renders one % cycle improvement table per benchmark,
// strategies down, configurations across.
func WriteMatrixTable(w io.Writer, rows []*Row) {
	fmt.Fprintln(w, "Percentage Cycle Improvement Over Level 2, Per Allocation Strategy")
	type point struct{ config, strategy string }
	for _, r := range rows {
		strategies, configs := axes([]*Row{r})
		byPoint := make(map[point]Cell)
		for _, c := range r.Cells {
			byPoint[point{c.Config, c.Strategy}] = c
		}
		fmt.Fprintf(w, "\n%s (L2: %d cycles)\n", r.Benchmark, r.Baseline.Cycles)
		fmt.Fprintf(w, "  %-18s", "strategy")
		for _, c := range configs {
			fmt.Fprintf(w, " %6s", c)
		}
		fmt.Fprintln(w)
		for _, s := range strategies {
			fmt.Fprintf(w, "  %-18s", s)
			for _, c := range configs {
				fmt.Fprintf(w, " %6.1f", byPoint[point{c, s}].CyclesImprovement)
			}
			fmt.Fprintln(w)
		}
		if len(r.Mismatch) > 0 {
			fmt.Fprintf(w, "  !! behaviour mismatch: %s\n", strings.Join(r.Mismatch, ","))
		}
		if !r.LowerBoundHolds {
			fmt.Fprintln(w, "  !! a cell took more cycles than L2")
		}
	}
}
