package ipra

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// runtimeCallers is a program that calls every runtime routine the linker
// synthesizes, so its executable holds all three.
func runtimeCallers(helper string) []Source {
	return []Source{
		{Name: "rt_main.mc", Text: []byte("int helper();\nint main() { putchar(65); putint(helper()); exit(3); return 0; }\n")},
		{Name: "rt_lib.mc", Text: []byte("int helper() { return " + helper + "; }\n")},
	}
}

// TestRuntimeRoutinesLinkInOneOrder builds a program that calls putchar,
// putint and exit many times in one process: every executable must be
// byte-equal, with the routines after the program's functions in one fixed
// order, and an incremental rebuild over an edit must equal a clean build
// of the edited program.
func TestRuntimeRoutinesLinkInOneOrder(t *testing.T) {
	ctx := context.Background()
	cfg := MustPreset("L2")
	var first []byte
	for i := 0; i < 24; i++ {
		res, err := Build(ctx, runtimeCallers("42"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := exeBytes(t, res.Exe)
		if first == nil {
			first = got
			var names []string
			for _, fi := range res.Exe.Funcs {
				names = append(names, fi.Name)
			}
			if got, want := strings.Join(names, " "), "main helper putchar putint exit"; got != want {
				t.Errorf("functions laid out as %s, want %s", got, want)
			}
			run, err := res.Run(0, false)
			if err != nil {
				t.Fatal(err)
			}
			if run.Exit != 3 || run.Output != "A42" {
				t.Errorf("run: exit %d, output %q; want 3, \"A42\"", run.Exit, run.Output)
			}
			continue
		}
		if !bytes.Equal(got, first) {
			t.Fatalf("build %d links a different executable than build 0", i)
		}
	}

	dir := t.TempDir()
	if _, err := Build(ctx, runtimeCallers("42"), cfg, WithBuildDir(dir)); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"7", "42"} {
		incr, err := Build(ctx, runtimeCallers(v), cfg, WithBuildDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		clean, err := Build(ctx, runtimeCallers(v), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(exeBytes(t, incr.Exe), exeBytes(t, clean.Exe)) {
			t.Errorf("helper returning %s: the incremental rebuild differs from a clean build", v)
		}
	}
}
