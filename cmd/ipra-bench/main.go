// ipra-bench regenerates the paper's evaluation tables over the Table 3
// benchmark analogs:
//
//	ipra-bench -table 4        Table 4: % cycle improvement over level 2
//	ipra-bench -table 5        Table 5: % singleton memory ref reduction
//	ipra-bench -raw            absolute counters for every cell
//	ipra-bench -webstats       §6.2 web census on a generated large program
//	ipra-bench -bench NAME     restrict to one benchmark
//	ipra-bench -strategies all run the benchmark × config × strategy
//	                           matrix ("all" or a comma-separated list)
//	ipra-bench -json PATH      also write the matrix as JSON
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ipra"
	"ipra/internal/bench"
	"ipra/internal/census"
	"ipra/internal/cliutil"
)

func main() {
	var (
		table      = flag.Int("table", 0, "paper table to regenerate (4 or 5; 0 = both)")
		raw        = flag.Bool("raw", false, "print absolute counter values")
		webstats   = flag.Bool("webstats", false, "print the §6.2 web census on a generated large program")
		only       = flag.String("bench", "", "run a single benchmark")
		strategies = flag.String("strategies", "", "run the strategy matrix: \"all\" or a comma-separated subset of "+strings.Join(ipra.StrategyNames(), ", "))
		jsonPath   = flag.String("json", "", "write the strategy matrix as JSON to this file")
	)
	common := cliutil.New("ipra-bench")
	common.Register(flag.CommandLine, cliutil.FlagVerbose|cliutil.FlagTelemetry|cliutil.FlagJobs)
	flag.Parse()
	if err := common.Start(); err != nil {
		fatal(err)
	}
	ctx := common.Context(context.Background())

	var err error
	if *webstats {
		err = census.Print(ctx, os.Stdout)
	} else {
		err = run(ctx, common.Jobs, *table, *raw, *strategies, *jsonPath, *only)
	}
	if common.Verbose {
		common.CacheStats(os.Stderr)
	}
	if ferr := common.Finish(); err == nil {
		err = ferr
	}
	if err != nil {
		fatal(err)
	}
}

// run drives the sweep: Tables 4 and 5 (or -raw) over the default
// strategy, or the strategy matrix when -strategies names any.
func run(ctx context.Context, jobs, table int, raw bool, strategies, jsonPath, only string) error {
	opt := bench.Options{Jobs: jobs, Strategies: []string{ipra.DefaultStrategy}}
	switch strategies {
	case "":
	case "all":
		opt.Strategies = nil
	default:
		opt.Strategies = strings.Split(strategies, ",")
	}
	if only != "" {
		opt.Benchmarks = []string{only}
	}
	rows, err := bench.Run(ctx, opt)
	if err != nil {
		return err
	}
	switch {
	case strategies != "":
		return writeMatrix(rows, jsonPath)
	case raw:
		for _, r := range rows {
			bench.WriteRaw(os.Stdout, r)
			fmt.Println()
		}
		return nil
	}
	if table == 0 || table == 4 {
		bench.WriteTable4(os.Stdout, rows)
		fmt.Println()
	}
	if table == 0 || table == 5 {
		bench.WriteTable5(os.Stdout, rows)
	}
	return nil
}

// writeMatrix prints the per-strategy tables, writes the JSON when asked,
// and fails on any behaviour mismatch.
func writeMatrix(rows []*bench.Row, jsonPath string) error {
	bench.WriteMatrixTable(os.Stdout, rows)
	if jsonPath != "" {
		if err := cliutil.WriteFile(jsonPath, func(w io.Writer) error {
			return bench.WriteMatrixJSON(w, rows)
		}); err != nil {
			return err
		}
	}
	for _, r := range rows {
		if len(r.Mismatch) > 0 {
			return fmt.Errorf("behaviour mismatch in %s: %s", r.Benchmark, strings.Join(r.Mismatch, ","))
		}
		// A false LowerBoundHolds is reported in the table and recorded in
		// the JSON rather than failing the run: spill motion that
		// mispredicts can genuinely land below L2 (protoc under
		// profile-trained B does exactly this).
	}
	return nil
}

func fatal(err error) {
	cliutil.Fatal("ipra-bench", err)
}
