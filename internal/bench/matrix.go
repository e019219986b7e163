// The strategy experiment matrix: every benchmark × configuration ×
// allocation strategy cell, measured under identical conditions. The
// point of the matrix is competitive: the paper's priority coloring, the
// tiling/reuse-interval policy, and the spill-everywhere lower-bound
// oracle all run behind the same core.Strategy seam, so their cycle
// counts are directly comparable — and the oracle's savings must bound
// every contender from below.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"ipra"
	"ipra/internal/benchprogs"
	"ipra/internal/pipeline"
)

// MatrixCell is one (configuration, strategy) measurement.
type MatrixCell struct {
	Strategy string `json:"strategy"`
	Cell
}

// MatrixRow is one benchmark across the whole strategy matrix.
type MatrixRow struct {
	Benchmark   string `json:"benchmark"`
	Description string `json:"description,omitempty"`
	// Baseline is the L2 measurement every cell normalizes against.
	Baseline Cell         `json:"baseline"`
	Cells    []MatrixCell `json:"cells"`
	// Mismatch lists config/strategy cells whose behaviour diverged from
	// the baseline; it must be empty.
	Mismatch []string `json:"mismatch,omitempty"`
	// LowerBoundHolds is true when, under every configuration, the
	// spill-everywhere oracle saved no more cycles than any other
	// strategy. False is not an error: a contender whose spill motion
	// mispredicts can land below the do-nothing oracle (the bound speaks
	// to allocation quality, not to every interprocedural transformation).
	LowerBoundHolds bool `json:"lowerBoundHolds"`
}

// MatrixOptions control a strategy sweep.
type MatrixOptions struct {
	// Benchmarks restricts the suite (nil = all).
	Benchmarks []string
	// Strategies restricts the strategy set (nil = every strategy).
	Strategies []string
	// Configs restricts the configuration set (nil = Table 4 A-F).
	Configs []string
	// Jobs bounds sweep parallelism, as in Options.
	Jobs int
}

// RunMatrix measures benchmark × configuration × strategy. Rows come
// back in suite order; cells in configuration-major, strategy-minor
// order.
func RunMatrix(ctx context.Context, opt MatrixOptions) ([]*MatrixRow, error) {
	strategies := opt.Strategies
	if len(strategies) == 0 {
		strategies = ipra.StrategyNames()
	}
	for i, s := range strategies {
		canon, err := ipra.ResolveStrategy(s)
		if err != nil {
			return nil, err
		}
		strategies[i] = canon
	}
	configNames := opt.Configs
	if len(configNames) == 0 {
		for _, cfg := range ipra.Configs() {
			configNames = append(configNames, cfg.Name)
		}
	}

	var selected []benchprogs.Benchmark
	var names []string
	for _, b := range benchprogs.All() {
		names = append(names, b.Name)
		if len(opt.Benchmarks) > 0 && !contains(opt.Benchmarks, b.Name) {
			continue
		}
		selected = append(selected, b)
	}
	for _, want := range opt.Benchmarks {
		if !contains(names, want) {
			return nil, fmt.Errorf("unknown benchmark %q (valid: %s)", want, strings.Join(names, ", "))
		}
	}

	return pipeline.MapCtx(ctx, opt.Jobs, selected, func(ctx context.Context, _ int, b benchprogs.Benchmark) (*MatrixRow, error) {
		return runMatrixRow(ctx, b, configNames, strategies, opt.Jobs)
	})
}

// matrixPoint names one cell of the fan-out.
type matrixPoint struct {
	config, strategy string
}

func runMatrixRow(ctx context.Context, b benchprogs.Benchmark, configs, strategies []string, jobs int) (*MatrixRow, error) {
	files, err := b.Sources()
	if err != nil {
		return nil, err
	}
	var sources []ipra.Source
	for _, f := range files {
		sources = append(sources, ipra.Source{Name: f.Name, Text: f.Text})
	}

	row := &MatrixRow{Benchmark: b.Name, Description: b.Description}
	base, err := measure(ctx, sources, withJobs(ipra.MustPreset("L2"), jobs), b.MaxInstrs)
	if err != nil {
		return nil, fmt.Errorf("%s/L2: %w", b.Name, err)
	}
	row.Baseline = *base

	var points []matrixPoint
	for _, c := range configs {
		for _, s := range strategies {
			points = append(points, matrixPoint{config: c, strategy: s})
		}
	}
	cells, err := pipeline.MapCtx(ctx, jobs, points, func(ctx context.Context, _ int, p matrixPoint) (MatrixCell, error) {
		cfg, err := ipra.PresetByName(p.config)
		if err != nil {
			return MatrixCell{}, err
		}
		cell, err := measure(ctx, sources, withJobs(cfg.WithStrategy(p.strategy), jobs), b.MaxInstrs)
		if err != nil {
			return MatrixCell{}, fmt.Errorf("%s/%s/%s: %w", b.Name, p.config, p.strategy, err)
		}
		cell.CyclesImprovement = pctImprovement(base.Cycles, cell.Cycles)
		cell.SingletonReduction = pctImprovement(base.SingletonRefs, cell.SingletonRefs)
		return MatrixCell{Strategy: p.strategy, Cell: *cell}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, cell := range cells {
		if cell.Exit != base.Exit || cell.Output != base.Output {
			row.Mismatch = append(row.Mismatch, cell.Config+"/"+cell.Strategy)
		}
		row.Cells = append(row.Cells, cell)
	}
	row.LowerBoundHolds = lowerBoundHolds(row)
	return row, nil
}

// lowerBoundHolds checks the oracle property per configuration: the
// spill-everywhere strategy's cycle improvement never exceeds another
// strategy's under the same configuration. Vacuously true when the
// oracle is not in the sweep.
func lowerBoundHolds(row *MatrixRow) bool {
	floor := make(map[string]float64)
	for _, c := range row.Cells {
		if c.Strategy == ipra.StrategySpillEverywhere {
			floor[c.Config] = c.CyclesImprovement
		}
	}
	for _, c := range row.Cells {
		if c.Strategy == ipra.StrategySpillEverywhere {
			continue
		}
		if f, ok := floor[c.Config]; ok && f > c.CyclesImprovement {
			return false
		}
	}
	return true
}

// matrixReport is the stable JSON shape of a strategy sweep.
type matrixReport struct {
	Strategies []string     `json:"strategies"`
	Configs    []string     `json:"configs"`
	Rows       []*MatrixRow `json:"benchmarks"`
}

// WriteMatrixJSON emits the sweep as indented JSON (BENCH_strategies.json).
func WriteMatrixJSON(w io.Writer, rows []*MatrixRow) error {
	rep := matrixReport{Rows: rows}
	seenS := make(map[string]bool)
	seenC := make(map[string]bool)
	for _, r := range rows {
		for _, c := range r.Cells {
			if !seenS[c.Strategy] {
				seenS[c.Strategy] = true
				rep.Strategies = append(rep.Strategies, c.Strategy)
			}
			if !seenC[c.Config] {
				seenC[c.Config] = true
				rep.Configs = append(rep.Configs, c.Config)
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteMatrixTable renders one % cycle improvement table per benchmark,
// strategies down, configurations across.
func WriteMatrixTable(w io.Writer, rows []*MatrixRow) {
	fmt.Fprintln(w, "Percentage Cycle Improvement Over Level 2, Per Allocation Strategy")
	for _, r := range rows {
		var configs []string
		seen := make(map[string]bool)
		byPoint := make(map[matrixPoint]MatrixCell)
		var strategies []string
		seenStrat := make(map[string]bool)
		for _, c := range r.Cells {
			if !seen[c.Config] {
				seen[c.Config] = true
				configs = append(configs, c.Config)
			}
			if !seenStrat[c.Strategy] {
				seenStrat[c.Strategy] = true
				strategies = append(strategies, c.Strategy)
			}
			byPoint[matrixPoint{c.Config, c.Strategy}] = c
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
				fmt.Fprintf(w, " %6.1f", byPoint[matrixPoint{c, s}].CyclesImprovement)
			}
			fmt.Fprintln(w)
		}
		if len(r.Mismatch) > 0 {
			fmt.Fprintf(w, "  !! behaviour mismatch: %s\n", strings.Join(r.Mismatch, ","))
		}
		if !r.LowerBoundHolds {
			fmt.Fprintln(w, "  !! spill-everywhere saved more cycles than a contender")
		}
	}
}
