// ipra-loadgen drives a scripted fleet of build clients against a running
// ipra-served daemon. It plays a program's profile-aggregation lifecycle
// (profiles.go): a trained build, stable fleet generations, then a
// workload shift that must trigger exactly one re-analysis.
//
//	ipra-loadgen -addr unix:/tmp/ipra.sock -exe retrained.exe
//
// -config defaults to B and must name a profiled configuration (B or F).
// The default seed, 5, generates a program whose shift moves a directive
// under B; -strategy selects the allocation strategy of every build, and
// -exe names the file the retrained executable is written to.
//
// The daemon's request latency is measured by the benchmark module's
// served workload (benchmark/run.sh), not here.
package main

import (
	"flag"
	"fmt"

	"ipra/internal/cliutil"
	"ipra/internal/progen"
)

func main() {
	var (
		addr    = flag.String("addr", "unix:ipra-served.sock", "daemon address")
		label   = flag.String("label", "", "label recorded in the report")
		out     = flag.String("o", "", "write the JSON report here (default stdout)")
		preset  = flag.String("preset", "", "progen size preset (overrides the size flags)")
		seed    = flag.Int64("seed", 5, "program generation seed")
		modules = flag.Int("modules", 8, "compilation units")
		procs   = flag.Int("procs", 10, "procedures per module")
		globals = flag.Int("globals", 48, "scalar global variables")

		generations = flag.Int("generations", 2, "stable fleet generations streamed before the workload shift")
		genRuns     = flag.Uint64("gen-runs", 4, "VM runs batched into each generation's record")
		snapOut     = flag.String("snapshot-out", "", "write the aggregate snapshot here")
		srcOut      = flag.String("src-out", "", "write the generated module sources into this directory")
	)
	build := &cliutil.BuildFlags{ConfigName: "B"}
	build.RegisterBuild(flag.CommandLine)
	common := cliutil.New("ipra-loadgen")
	common.Register(flag.CommandLine, 0)
	flag.Parse()
	if err := common.Start(); err != nil {
		common.Fatal(err)
	}

	cfg, err := build.Config()
	if err != nil {
		common.Fatal(err)
	}
	if !cfg.WantProfile {
		common.Fatal(fmt.Errorf("configuration %s estimates its call counts; the fleet scenario needs a profiled configuration (B or F)", cfg.Name))
	}
	pcfg := progen.Config{
		Seed: *seed, Modules: *modules, ProcsPerModule: *procs, Globals: *globals,
		SubsystemSize: 6, Recursion: true, Statics: true, LoopIters: 2,
	}
	if *preset != "" {
		if pcfg, err = progen.Preset(*preset); err != nil {
			common.Fatal(err)
		}
	}
	p := profilesParams{
		addr: *addr, config: cfg.Name, strategy: cfg.Strategy,
		pcfg: pcfg, mods: progen.Generate(pcfg), label: *label, out: *out,
		generations: *generations, genRuns: *genRuns,
		exe: build.ExePath, snapOut: *snapOut, srcOut: *srcOut,
	}
	if err := runProfiles(p); err != nil {
		common.Fatal(err)
	}
	if err := common.Finish(); err != nil {
		common.Fatal(err)
	}
}
