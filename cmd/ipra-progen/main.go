// ipra-progen writes a synthesized whole program (internal/progen) to a
// directory of .mc module files, optionally after applying one seeded
// source edit, so shell-level tooling — the CI incremental smoke job,
// manual cache experiments — can drive mcc over reproducible programs
// and reproducible dirty regions:
//
//	ipra-progen -o src                          write the default program
//	ipra-progen -preset medium -o src           write a named preset
//	ipra-progen -o src -edit body -edit-seed 7  write the edited twin
//
// Generation is a pure function of the flags: the same invocation always
// writes byte-identical files, and an -edit run differs from the base run
// in exactly one module.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ipra/internal/cliutil"
	"ipra/internal/progen"
)

func main() {
	var (
		out      = flag.String("o", "", "output directory for the generated .mc files (required)")
		preset   = flag.String("preset", "", "size preset ("+strings.Join(progen.PresetNames(), ", ")+"; overrides the size flags)")
		seed     = flag.Int64("seed", 1, "generation seed")
		modules  = flag.Int("modules", 8, "compilation units")
		procs    = flag.Int("procs", 10, "procedures per module")
		globals  = flag.Int("globals", 64, "scalar global variables")
		subsys   = flag.Int("subsystem", 6, "procedures sharing a global's locality")
		loops    = flag.Int("loop-iters", 2, "run-time scale")
		editKind = flag.String("edit", "", "apply one seeded edit before writing (noop, body, call, scc)")
		editSeed = flag.Int64("edit-seed", 1, "edit placement seed")
	)
	flag.Parse()
	if *out == "" {
		cliutil.Fatal("ipra-progen", fmt.Errorf("-o is required"))
	}

	cfg := progen.Config{
		Seed: *seed, Modules: *modules, ProcsPerModule: *procs, Globals: *globals,
		SubsystemSize: *subsys, Recursion: true, Statics: true, LoopIters: *loops,
	}
	if *preset != "" {
		p, err := progen.Preset(*preset)
		if err != nil {
			cliutil.Fatal("ipra-progen", err)
		}
		cfg = p
	}

	mods := progen.Generate(cfg)
	if *editKind != "" {
		edited, desc := progen.Mutate(cfg, mods, *editSeed, progen.EditKind(*editKind))
		if strings.HasPrefix(desc, "no-op (") {
			cliutil.Fatal("ipra-progen", fmt.Errorf("edit %s did not apply: %s", *editKind, desc))
		}
		fmt.Fprintf(os.Stderr, "ipra-progen: %s\n", desc)
		mods = edited
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		cliutil.Fatal("ipra-progen", err)
	}
	for _, m := range mods {
		if err := os.WriteFile(filepath.Join(*out, m.Name), []byte(m.Text), 0o644); err != nil {
			cliutil.Fatal("ipra-progen", err)
		}
	}
	fmt.Fprintf(os.Stderr, "ipra-progen: wrote %d modules to %s\n", len(mods), *out)
}
