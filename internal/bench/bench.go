// Package bench regenerates the paper's evaluation tables: it compiles
// every Table 3 benchmark analog under every Table 4 configuration, runs
// it on the PARV simulator, and reports
//
//   - Table 4: percentage performance improvement (total cycles, no cache
//     model) over level-2 optimization, and
//   - Table 5: percentage reduction in dynamic singleton memory
//     references over level-2 optimization,
//
// for configurations A–F, plus the §6.2 web census for the PA-optimizer
// analog. The same sweep, over every allocation strategy, gives the
// strategy matrix (BENCH_strategies.json).
package bench

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"

	"ipra"
	"ipra/internal/benchprogs"
	"ipra/internal/pipeline"
)

// Cell is one measurement of one benchmark under one configuration and
// allocation strategy.
type Cell struct {
	// Strategy is the allocation strategy the cell was built under; the
	// L2 baseline has none.
	Strategy string `json:"strategy,omitempty"`
	Config   string
	// Exit and Output validate behavioural equivalence with the baseline.
	Exit   int32
	Output string

	Cycles        uint64
	Instrs        uint64
	MemRefs       uint64
	SingletonRefs uint64

	// CyclesImprovement is the Table 4 number (percent, positive = faster).
	CyclesImprovement float64
	// SingletonReduction is the Table 5 number (percent).
	SingletonReduction float64
}

// Row is one benchmark across the sweep's configurations and strategies.
type Row struct {
	Benchmark   string `json:"benchmark"`
	Description string `json:"description,omitempty"`
	// Baseline is the L2 measurement every cell normalizes against.
	Baseline Cell `json:"baseline"`
	// Cells come in configuration-major, strategy-minor order.
	Cells []Cell `json:"cells"`
	// Mismatch lists the config/strategy cells whose behaviour diverged
	// from L2 (this must be empty; it is reported rather than panicking so
	// the harness can show every benchmark).
	Mismatch []string `json:"mismatch,omitempty"`
	// LowerBoundHolds is true when no cell took more cycles than the L2
	// baseline. L2 is the spill-everywhere floor of Bouchez et al.: no
	// promotion, no spill motion, the standard linkage convention
	// everywhere. False is not an error: spill motion that mispredicts can
	// land below it (the bound speaks to allocation quality, not to every
	// interprocedural transformation).
	LowerBoundHolds bool `json:"lowerBoundHolds"`
}

// Options control a sweep.
type Options struct {
	// Benchmarks restricts the suite (nil = all).
	Benchmarks []string
	// Strategies restricts the allocation strategies (nil = every
	// strategy). Tables 4 and 5 are the sweep over the default strategy.
	Strategies []string
	// Jobs bounds sweep parallelism: 0 uses one worker per CPU, 1 runs
	// the sweep sequentially. The cells are independent measurements —
	// the simulator counts cycles deterministically — so the tables are
	// identical at every setting.
	Jobs int
}

// Run measures benchmark × configuration × strategy, fanning the
// benchmarks, and within each the cells, across opt.Jobs workers. Rows
// come back in suite (Table 3) order regardless of completion order.
func Run(ctx context.Context, opt Options) ([]*Row, error) {
	strategies := opt.Strategies
	if len(strategies) == 0 {
		strategies = ipra.StrategyNames()
	}
	var points []ipra.Config
	for _, cfg := range ipra.Configs() {
		for _, s := range strategies {
			canon, err := ipra.ResolveStrategy(s)
			if err != nil {
				return nil, err
			}
			points = append(points, cfg.WithStrategy(canon))
		}
	}

	var selected []benchprogs.Benchmark
	var names []string
	for _, b := range benchprogs.All() {
		names = append(names, b.Name)
		if len(opt.Benchmarks) == 0 || slices.Contains(opt.Benchmarks, b.Name) {
			selected = append(selected, b)
		}
	}
	for _, want := range opt.Benchmarks {
		if !slices.Contains(names, want) {
			return nil, fmt.Errorf("unknown benchmark %q (valid: %s)", want, strings.Join(names, ", "))
		}
	}
	return pipeline.MapCtx(ctx, opt.Jobs, selected, func(ctx context.Context, _ int, b benchprogs.Benchmark) (*Row, error) {
		return runRow(ctx, b, points, opt.Jobs)
	})
}

// runRow measures one benchmark under the baseline and every point of the
// sweep (the L2 baseline is measured first: every cell normalizes
// against it).
func runRow(ctx context.Context, b benchprogs.Benchmark, points []ipra.Config, jobs int) (*Row, error) {
	files, err := b.Sources()
	if err != nil {
		return nil, err
	}
	var sources []ipra.Source
	for _, f := range files {
		sources = append(sources, ipra.Source{Name: f.Name, Text: f.Text})
	}

	row := &Row{Benchmark: b.Name, Description: b.Description}
	base, err := measure(ctx, sources, withJobs(ipra.MustPreset("L2"), jobs), b.MaxInstrs)
	if err != nil {
		return nil, fmt.Errorf("%s/L2: %w", b.Name, err)
	}
	row.Baseline = *base

	cells, err := pipeline.MapCtx(ctx, jobs, points, func(ctx context.Context, _ int, cfg ipra.Config) (Cell, error) {
		cell, err := measure(ctx, sources, withJobs(cfg, jobs), b.MaxInstrs)
		if err != nil {
			return Cell{}, fmt.Errorf("%s/%s/%s: %w", b.Name, cfg.Name, cfg.Strategy, err)
		}
		cell.Strategy = cfg.Strategy
		cell.CyclesImprovement = pctImprovement(base.Cycles, cell.Cycles)
		cell.SingletonReduction = pctImprovement(base.SingletonRefs, cell.SingletonRefs)
		return *cell, nil
	})
	if err != nil {
		return nil, err
	}
	row.LowerBoundHolds = true
	for _, cell := range cells {
		if cell.Exit != base.Exit || cell.Output != base.Output {
			row.Mismatch = append(row.Mismatch, cell.Config+"/"+cell.Strategy)
		}
		if cell.Cycles > base.Cycles {
			row.LowerBoundHolds = false
		}
		row.Cells = append(row.Cells, cell)
	}
	return row, nil
}

// withJobs threads the sweep's worker budget into each compilation.
func withJobs(cfg ipra.Config, jobs int) ipra.Config {
	cfg.Jobs = jobs
	return cfg
}

func measure(ctx context.Context, sources []ipra.Source, cfg ipra.Config, maxInstrs uint64) (*Cell, error) {
	p, err := ipra.Build(ctx, sources, cfg, ipra.WithProfile(maxInstrs))
	if err != nil {
		return nil, err
	}
	res, err := p.Run(maxInstrs, false)
	if err != nil {
		return nil, err
	}
	return &Cell{
		Config:        cfg.Name,
		Exit:          res.Exit,
		Output:        res.Output,
		Cycles:        res.Stats.Cycles,
		Instrs:        res.Stats.Instrs,
		MemRefs:       res.Stats.MemRefs(),
		SingletonRefs: res.Stats.SingletonRefs(),
	}, nil
}

func pctImprovement(base, v uint64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (float64(base) - float64(v)) / float64(base)
}

// legend matches the paper's Table 4 key.
var legend = []string{
	"A = Spill motion only",
	"B = Spill motion w/profile info",
	"C = Spill motion & 6 reg coloring",
	"D = Spill motion & greedy coloring",
	"E = Spill motion & blanket promotion",
	"F = Spill motion & 6 reg coloring w/profile info",
}

// WriteTable4 renders the Table 4 analog: percentage performance
// improvement over level-2 optimization.
func WriteTable4(w io.Writer, rows []*Row) {
	fmt.Fprintln(w, "Percentage Performance Improvement Over Level 2 Optimization")
	fmt.Fprintln(w, "(total cycles measured by the PARV simulator, no cache model)")
	fmt.Fprintln(w)
	writeHeader(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s", r.Benchmark)
		for _, c := range r.Cells {
			fmt.Fprintf(w, " %6.1f", c.CyclesImprovement)
		}
		if len(r.Mismatch) > 0 {
			fmt.Fprintf(w, "   !! behaviour mismatch: %s", strings.Join(r.Mismatch, ","))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	for _, l := range legend {
		fmt.Fprintln(w, l)
	}
}

// WriteTable5 renders the Table 5 analog: percent reduction in dynamic
// singleton memory references.
func WriteTable5(w io.Writer, rows []*Row) {
	fmt.Fprintln(w, "Percent Reduction in Dynamic Singleton Memory References")
	fmt.Fprintln(w, "(Over Level 2 Optimization)")
	fmt.Fprintln(w)
	writeHeader(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s", r.Benchmark)
		for _, c := range r.Cells {
			fmt.Fprintf(w, " %6.1f", c.SingletonReduction)
		}
		fmt.Fprintln(w)
	}
}

func writeHeader(w io.Writer) {
	fmt.Fprintf(w, "%-10s", "Benchmark")
	for _, c := range []string{"A", "B", "C", "D", "E", "F"} {
		fmt.Fprintf(w, " %6s", c)
	}
	fmt.Fprintln(w)
}

// WriteRaw renders the absolute counter values for one row.
func WriteRaw(w io.Writer, r *Row) {
	fmt.Fprintf(w, "%s (%s)\n", r.Benchmark, r.Description)
	fmt.Fprintf(w, "  %-4s %12s %12s %12s %12s\n", "cfg", "instrs", "cycles", "memrefs", "singleton")
	p := func(c *Cell) {
		fmt.Fprintf(w, "  %-4s %12d %12d %12d %12d\n", c.Config, c.Instrs, c.Cycles, c.MemRefs, c.SingletonRefs)
	}
	p(&r.Baseline)
	for i := range r.Cells {
		p(&r.Cells[i])
	}
}
