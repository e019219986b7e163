// ipra-analyze is the program analyzer tool (§4 of the paper). It reads
// the summary records at the head of the phase-1 records (.p1) that
// `mcc -phase1` writes, and never their code; builds the program call
// graph; runs global variable promotion and spill code motion; and writes
// the program database consumed by `mcc -phase2`.
//
//	ipra-analyze -o prog.pdb main.p1 lib.p1 ...
//
// Flags select the paper's strategies: -promotion {none,coloring,greedy,
// blanket}, -regs N (coloring registers), -spill-motion, and -profile to
// supply profiled call counts from a profile snapshot (mvm -profile's or
// ipra-served's); -strategy picks the allocation strategy (priority or
// tiling), registered as on mcc.
//
// For scaling experiments, -synth <preset> analyzes a synthesized whole
// program (small/medium/large, ~500/2000/10000 procedures) instead of
// phase-1 records, and -cpuprofile/-memprofile capture pprof data for the
// run. The analyzer runs on one goroutine, so the tool takes no -j.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"ipra/internal/cache"
	"ipra/internal/cliutil"
	"ipra/internal/core"
	"ipra/internal/pdb"
	"ipra/internal/progen"
	"ipra/internal/summary"
	"ipra/internal/verify"
)

func main() {
	var (
		out         = flag.String("o", "prog.pdb", "program database output path")
		promotion   = flag.String("promotion", "coloring", "global variable promotion: none, coloring, greedy, blanket")
		regsN       = flag.Int("regs", 6, "callee-saves registers reserved for web coloring")
		blanketN    = flag.Int("blanket", 6, "globals promoted under blanket mode")
		spillMotion = flag.Bool("spill-motion", true, "enable spill code motion (clusters)")
		profilePath = flag.String("profile", "", "profile snapshot with exact call counts (from mvm -profile or ipra-served)")
		partial     = flag.Bool("partial", false, "partial call graph: assume unknown external callers (§7.2)")
		mergeWebs   = flag.Bool("merge-webs", false, "re-merge webs through common dominators (§7.6.1)")
		callerSaves = flag.Bool("caller-saves", false, "banded caller-saves preallocation (§7.6.2)")
		synth       = flag.String("synth", "", "analyze a synthesized program instead of summary files ("+strings.Join(progen.PresetNames(), ", ")+")")
	)
	var build cliutil.BuildFlags
	build.RegisterStrategy(flag.CommandLine)
	common := cliutil.New("ipra-analyze")
	common.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() == 0 && *synth == "" {
		fmt.Fprintln(os.Stderr, "ipra-analyze: no phase-1 records (or use -synth <preset>)")
		os.Exit(2)
	}
	if err := common.Start(); err != nil {
		fatal(err)
	}
	ctx := common.Context(context.Background())

	opt := core.DefaultOptions()
	canon, err := core.ResolveStrategy(build.StrategyName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipra-analyze: %v\n", err)
		os.Exit(2)
	}
	opt.Strategy = canon
	opt.SpillMotion = *spillMotion
	opt.ColoringRegs = *regsN
	opt.BlanketCount = *blanketN
	opt.PartialProgram = *partial
	opt.MergeWebs = *mergeWebs
	opt.CallerSavesPreallocation = *callerSaves
	switch *promotion {
	case "none":
		opt.Promotion = core.PromoteNone
	case "coloring":
		opt.Promotion = core.PromoteColoring
	case "greedy":
		opt.Promotion = core.PromoteGreedy
	case "blanket":
		opt.Promotion = core.PromoteBlanket
	default:
		fmt.Fprintf(os.Stderr, "ipra-analyze: unknown promotion mode %q\n", *promotion)
		os.Exit(2)
	}

	if *profilePath != "" {
		if opt.Profile, err = cliutil.ReadSnapshot(*profilePath); err != nil {
			fatal(err)
		}
	}

	var sums []*summary.ModuleSummary
	if *synth != "" {
		pcfg, err := progen.Preset(*synth)
		if err != nil {
			fatal(err)
		}
		sums = progen.GenerateSummaries(pcfg)
	}
	for _, f := range flag.Args() {
		data, err := os.ReadFile(f)
		if err != nil {
			fatal(err)
		}
		ms, err := cache.DecodeSummary(data)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", f, err))
		}
		sums = append(sums, ms)
	}

	res, err := core.Analyze(ctx, sums, opt)
	if err != nil {
		fatal(err)
	}
	if common.Verify {
		if vs := verify.Check(res.Graph, res.Sets, res.DB); len(vs) > 0 {
			for _, v := range vs {
				fmt.Fprintf(os.Stderr, "ipra-analyze: verify: %s\n", v)
			}
			fatal(fmt.Errorf("verify: %d allocation invariant violation(s)", len(vs)))
		}
		fmt.Printf("ipra-analyze: verify: %d procedures clean\n", len(res.DB.Procs))
	}
	if err := pdb.WriteFile(*out, res.DB); err != nil {
		fatal(err)
	}
	if common.Verbose {
		fmt.Print(res.Report())
	}
	if err := common.Finish(); err != nil {
		fatal(err)
	}
	fmt.Printf("ipra-analyze: %d summaries -> %s (%d procedures)\n",
		len(sums), *out, len(res.DB.Procs))
}

func fatal(err error) {
	cliutil.Fatal("ipra-analyze", err)
}
