// ipra-analyze is the program analyzer tool (§4 of the paper). It reads
// the summary records at the head of the phase-1 records (.p1) that
// `mcc -phase1` writes, and never their code; runs the build's analyzer
// step (ipra.Analyze) over them; and writes the program database consumed
// by `mcc -phase2 -pdb`.
//
//	ipra-analyze [-config C] -o prog.pdb main.p1 lib.p1 ...
//
// -config names the configuration as mcc does: L2 or a Table 4 column
// A-F (default C), and -strategy the allocation strategy (priority or
// tiling). Under L2 the database holds only the program-wide eligibility
// list, the level-2 baseline. The profiled columns B and F need -profile,
// a profile snapshot with the call counts (mvm -profile's or
// ipra-served's), since the file flow has no training run; any other
// configuration refuses one. -partial, -merge-webs and -caller-saves turn
// on the §7 extensions under an analyzer configuration. Phase 2 and link
// under the database give the executable `mcc -incremental` builds under
// the same configuration, byte for byte. A program holds each module
// once: two records of one module are an error naming it.
//
// For scaling experiments, -synth <preset> generates a progen preset
// program (small/medium/large, ~500/2000/10000 procedures), compiles its
// modules through phase 1 in generation order, and analyzes their
// summaries, exactly as if their .p1 records were named in that order.
// -cpuprofile and -trace start after phase 1, so they cover the analysis
// alone. The analyzer runs on one goroutine, so the tool takes no -j.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"ipra"
	"ipra/internal/cache"
	"ipra/internal/cliutil"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/progen"
	"ipra/internal/summary"
	"ipra/internal/verify"
)

func main() {
	var (
		out         = flag.String("o", "prog.pdb", "program database output path")
		profilePath = flag.String("profile", "", "profile snapshot with exact call counts, for B and F (from mvm -profile or ipra-served)")
		partial     = flag.Bool("partial", false, "partial call graph: assume unknown external callers (§7.2)")
		mergeWebs   = flag.Bool("merge-webs", false, "re-merge webs through common dominators (§7.6.1)")
		callerSaves = flag.Bool("caller-saves", false, "banded caller-saves preallocation (§7.6.2)")
		synth       = flag.String("synth", "", "analyze phase 1's summaries of a generated preset program ("+strings.Join(progen.PresetNames(), ", ")+")")
	)
	var build cliutil.BuildFlags
	build.RegisterConfig(flag.CommandLine)
	common := cliutil.New("ipra-analyze")
	common.Register(flag.CommandLine, cliutil.FlagVerbose|cliutil.FlagVerify|cliutil.FlagTelemetry)
	flag.Parse()
	if flag.NArg() == 0 && *synth == "" {
		fmt.Fprintln(os.Stderr, "ipra-analyze: no phase-1 records (or use -synth <preset>)")
		os.Exit(2)
	}
	cfg, err := build.Config()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipra-analyze: %v\n", err)
		os.Exit(2)
	}
	if (*partial || *mergeWebs || *callerSaves) && !cfg.UseAnalyzer {
		fatal(fmt.Errorf("configuration %s runs no analyzer; -partial, -merge-webs and -caller-saves need one of A-F", cfg.Name))
	}
	cfg.Analyzer.PartialProgram = *partial
	cfg.Analyzer.MergeWebs = *mergeWebs
	cfg.Analyzer.CallerSavesPreallocation = *callerSaves
	var profile *parv.Profile
	switch {
	case *profilePath != "":
		if profile, err = cliutil.ReadSnapshot(*profilePath); err != nil {
			fatal(err)
		}
	case cfg.WantProfile:
		fatal(fmt.Errorf("configuration %s needs -profile: the file flow has no training run (mvm -profile writes a snapshot)", cfg.Name))
	}

	var sums []*summary.ModuleSummary
	if *synth != "" {
		pcfg, err := progen.Preset(*synth)
		if err != nil {
			fatal(err)
		}
		for _, m := range progen.Generate(pcfg) {
			_, ms, err := ipra.Phase1(ipra.Source{Name: m.Name, Text: []byte(m.Text)})
			if err != nil {
				fatal(fmt.Errorf("%s: %w", m.Name, err))
			}
			sums = append(sums, ms)
		}
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

	// The CPU profile and the trace cover the analysis alone.
	if err := common.Start(); err != nil {
		fatal(err)
	}
	ctx := common.Context(context.Background())
	db, res, err := ipra.Analyze(ctx, sums, cfg, profile)
	if err != nil {
		fatal(err)
	}
	if common.Verify && res != nil {
		if vs := verify.Check(res.Graph, res.Sets, res.DB); len(vs) > 0 {
			for _, v := range vs {
				fmt.Fprintf(os.Stderr, "ipra-analyze: verify: %s\n", v)
			}
			fatal(fmt.Errorf("verify: %d allocation invariant violation(s)", len(vs)))
		}
		fmt.Printf("ipra-analyze: verify: %d procedures clean\n", len(res.DB.Procs))
	}
	if err := pdb.WriteFile(*out, db); err != nil {
		fatal(err)
	}
	if common.Verbose && res != nil {
		fmt.Print(res.Report())
	}
	if err := common.Finish(); err != nil {
		fatal(err)
	}
	fmt.Printf("ipra-analyze: %d summaries -> %s (%d procedures)\n",
		len(sums), *out, len(db.Procs))
}

func fatal(err error) {
	cliutil.Fatal("ipra-analyze", err)
}
