// mvm runs a linked PARV executable on the instruction-level simulator and
// reports the execution statistics the paper's evaluation uses: total
// cycles (no cache model), instructions, memory references, and singleton
// memory references. With -profile it also writes the run's gprof-style
// call-edge counts as a one-run profile snapshot (the profagg-snapshot,
// ipra-served's one profile artifact), which ipra-analyze -profile and
// mcc -profile-snapshot read.
//
//	mvm [-profile prof.snap] [-disasm] prog.exe
package main

import (
	"flag"
	"fmt"
	"os"

	"ipra"
	"ipra/internal/cliutil"
	"ipra/internal/parv"
	"ipra/internal/profagg"
)

func main() {
	var (
		profileOut = flag.String("profile", "", "write the run's call-edge profile snapshot to this path")
		disasm     = flag.Bool("disasm", false, "disassemble instead of running")
		maxInstrs  = flag.Uint64("max-instrs", 0, "instruction budget (0 = default)")
		quiet      = flag.Bool("q", false, "suppress statistics")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mvm [flags] prog.exe")
		os.Exit(2)
	}

	exe, err := parv.ReadExecutableFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	if *disasm {
		parv.Disassemble(os.Stdout, exe)
		return
	}

	vm := parv.NewVM(exe)
	vm.ProfileEdges = *profileOut != ""
	exit, err := vm.Run(*maxInstrs)
	if err != nil {
		fatal(err)
	}
	os.Stdout.WriteString(vm.Output())

	if !*quiet {
		s := vm.Stats
		fmt.Fprintf(os.Stderr, "exit=%d instrs=%d cycles=%d loads=%d stores=%d singleton=%d calls=%d\n",
			exit, s.Instrs, s.Cycles, s.Loads, s.Stores, s.SingletonRefs(), s.Calls)
	}

	if *profileOut != "" {
		// One run of no served program: no program key or directive hash.
		agg := profagg.NewAggregate(ipra.ToolchainFingerprint(), "", "")
		agg.AddRuns(vm.Profile(), 1)
		if err := os.WriteFile(*profileOut, agg.Encode(), 0o644); err != nil {
			fatal(err)
		}
	}
	os.Exit(int(exit & 0xff))
}

func fatal(err error) {
	cliutil.Fatal("mvm", err)
}
