package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ipra"
	"ipra/internal/cache"
	"ipra/internal/parv"
	"ipra/internal/profagg"
	"ipra/internal/progen"
	"ipra/internal/summary"
)

// TestRejectsInvalidSummaries runs the tool on phase-1 records whose
// summary breaks what the analyzer assumes: each must make it exit 1 with
// a message naming the module, not analyze the record.
func TestRejectsInvalidSummaries(t *testing.T) {
	tool := buildTool(t)

	const src = `int g;
int leaf(int x) { g = g + x; return g; }
int main() { int i; for (i = 0; i < 3; i++) leaf(i); return g; }
`
	m, ms, err := ipra.Phase1(ipra.Source{Name: "bad.mc", Text: []byte(src)})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Procs) != 2 || len(ms.Procs[1].Calls) == 0 || len(ms.Procs[0].GlobalRefs) == 0 {
		t.Fatalf("unexpected summary shape: %+v", ms.Procs)
	}
	cases := []struct {
		name   string
		mutate func(ms *summary.ModuleSummary)
	}{
		{"duplicate-procedure", func(ms *summary.ModuleSummary) { ms.Procs = append(ms.Procs, ms.Procs[0]) }},
		{"foreign-module", func(ms *summary.ModuleSummary) { ms.Procs[0].Module = "other.mc" }},
		{"negative-call-frequency", func(ms *summary.ModuleSummary) { ms.Procs[1].Calls[0].Freq = -5 }},
		{"negative-access-count", func(ms *summary.ModuleSummary) { ms.Procs[0].GlobalRefs[0].Reads = -1 }},
		{"negative-register-need", func(ms *summary.ModuleSummary) { ms.Procs[0].CalleeSavesNeeded = -2 }},
		{"negative-global-size", func(ms *summary.ModuleSummary) { ms.Globals[0].Size = -4 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := *ms
			bad.Procs = make([]summary.ProcRecord, len(ms.Procs))
			for i, p := range ms.Procs {
				p.GlobalRefs = append([]summary.GlobalRef(nil), p.GlobalRefs...)
				p.Calls = append([]summary.CallSite(nil), p.Calls...)
				bad.Procs[i] = p
			}
			bad.Globals = append([]summary.GlobalInfo(nil), ms.Globals...)
			tc.mutate(&bad)
			p1 := filepath.Join(t.TempDir(), "bad.p1")
			if err := os.WriteFile(p1, cache.EncodeEntry(m, &bad), 0o644); err != nil {
				t.Fatal(err)
			}
			var stderr bytes.Buffer
			cmd := exec.Command(tool, "-o", filepath.Join(t.TempDir(), "p.pdb"), p1)
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("exit: %v, want status 1; stderr:\n%s", err, stderr.String())
			}
			if msg := stderr.String(); !strings.Contains(msg, `module "bad.mc"`) || strings.Contains(msg, "panic:") {
				t.Errorf("stderr does not name the module:\n%s", msg)
			}
		})
	}
}

// TestRejectsModuleGivenTwice: a program holds each module once, so the
// same record named twice is an exit 1 naming the module under every
// configuration, L2 included, not an analysis of a program with every
// procedure twice.
func TestRejectsModuleGivenTwice(t *testing.T) {
	tool := buildTool(t)
	dir := t.TempDir()
	m, ms, err := ipra.Phase1(ipra.Source{Name: "twice.mc", Text: []byte("int g;\nint main() { g = 1; return g; }\n")})
	if err != nil {
		t.Fatal(err)
	}
	p1 := filepath.Join(dir, "twice.p1")
	if err := os.WriteFile(p1, cache.EncodeEntry(m, ms), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, config := range []string{"L2", "C"} {
		var stderr bytes.Buffer
		cmd := exec.Command(tool, "-config", config, "-o", filepath.Join(dir, "p.pdb"), p1, p1)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("-config %s: exit: %v, want status 1; stderr:\n%s", config, err, stderr.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, `duplicate module name "twice.mc"`) {
			t.Errorf("-config %s: stderr does not name the module:\n%s", config, msg)
		}
	}
}

// TestSynthIsTheFileFlow: -synth small analyzes what the file flow's
// phase 1 writes for the preset's program. Its database equals the one
// the tool writes over the modules' .p1 records named in generation
// order, and its summaries verify clean. Adding one of those records to
// -synth names its module twice.
func TestSynthIsTheFileFlow(t *testing.T) {
	tool := buildTool(t)
	dir := t.TempDir()
	pcfg, err := progen.Preset("small")
	if err != nil {
		t.Fatal(err)
	}
	var records []string
	for _, mod := range progen.Generate(pcfg) {
		m, ms, err := ipra.Phase1(ipra.Source{Name: mod.Name, Text: []byte(mod.Text)})
		if err != nil {
			t.Fatal(err)
		}
		p1 := filepath.Join(dir, strings.TrimSuffix(mod.Name, ".mc")+".p1")
		if err := os.WriteFile(p1, cache.EncodeEntry(m, ms), 0o644); err != nil {
			t.Fatal(err)
		}
		records = append(records, p1)
	}
	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(tool, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	synth, files := filepath.Join(dir, "synth.pdb"), filepath.Join(dir, "files.pdb")
	if out := run("-synth", "small", "-verify", "-o", synth); !strings.Contains(out, "verify: 501 procedures clean") {
		t.Errorf("-synth small -verify:\n%s", out)
	}
	run(append([]string{"-o", files}, records...)...)
	a, err := os.ReadFile(synth)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(files)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("-synth small's database differs from the file flow's over the same program")
	}

	out, err := exec.Command(tool, "-synth", "small", "-o", synth, records[0]).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), `duplicate module name "gen0.mc"`) {
		t.Errorf("-synth small gen0.p1: %v\n%s", err, out)
	}
}

// buildTool builds the command into a temporary directory.
func buildTool(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the tool")
	}
	tool := filepath.Join(t.TempDir(), "ipra-analyze")
	// go test puts its own toolchain first on the PATH.
	build := exec.Command("go", "build", "-o", tool, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return tool
}

// TestConfigurationFlags: the tool names its configuration with -config
// alone. The flags that used to pick analyzer options are unknown (exit
// 2), B and F need a profile, any other configuration refuses one, and
// the §7 flags need a configuration that runs the analyzer (exit 1, each
// message naming what is wrong).
func TestConfigurationFlags(t *testing.T) {
	tool := buildTool(t)
	dir := t.TempDir()
	m, ms, err := ipra.Phase1(ipra.Source{Name: "p.mc", Text: []byte("int g;\nint main() { g = 1; return g; }\n")})
	if err != nil {
		t.Fatal(err)
	}
	p1 := filepath.Join(dir, "p.p1")
	if err := os.WriteFile(p1, cache.EncodeEntry(m, ms), 0o644); err != nil {
		t.Fatal(err)
	}
	agg := profagg.NewAggregate(ipra.ToolchainFingerprint(), "", "")
	agg.AddRuns(&parv.Profile{Edges: map[parv.EdgeKey]uint64{}}, 1)
	snap := filepath.Join(dir, "p.snap")
	if err := os.WriteFile(snap, agg.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "p.pdb")
	cases := []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-promotion", "none"}, 2, "-promotion"},
		{[]string{"-regs", "4"}, 2, "-regs"},
		{[]string{"-blanket", "1"}, 2, "-blanket"},
		{[]string{"-spill-motion=false"}, 2, "-spill-motion"},
		{[]string{"-config", "B"}, 1, "-profile"},
		{[]string{"-config", "F"}, 1, "-profile"},
		{[]string{"-profile", snap}, 1, "configuration C"},
		{[]string{"-config", "L2", "-profile", snap}, 1, "configuration L2"},
		{[]string{"-config", "L2", "-partial"}, 1, "configuration L2"},
		{[]string{"-config", "L2"}, 0, ""},
		{[]string{"-config", "B", "-profile", snap}, 0, ""},
	}
	for _, tc := range cases {
		var stderr bytes.Buffer
		cmd := exec.Command(tool, append(append(tc.args, "-o", out), p1)...)
		cmd.Stderr = &stderr
		code := 0
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatal(err)
			}
			code = exit.ExitCode()
		}
		if code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: exit %d, want %d naming %q; stderr:\n%s", tc.args, code, tc.code, tc.want, stderr.String())
		}
	}
}
