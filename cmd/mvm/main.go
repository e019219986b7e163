// mvm runs a linked PARV executable on the instruction-level simulator and
// reports the execution statistics the paper's evaluation uses: total
// cycles (no cache model), instructions, memory references, and singleton
// memory references. With -profile it also writes gprof-style call-edge
// counts for ipra-analyze.
//
//	mvm [-profile prof.json] [-disasm] prog.exe
package main

import (
	"flag"
	"fmt"
	"os"

	"ipra/internal/cliutil"
	"ipra/internal/parv"
)

func main() {
	var (
		profileOut = flag.String("profile", "", "write call-edge profile JSON to this path")
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
		if err := cliutil.WriteProfile(*profileOut, vm.Profile()); err != nil {
			fatal(err)
		}
	}
	os.Exit(int(exit & 0xff))
}

func fatal(err error) {
	cliutil.Fatal("mvm", err)
}
