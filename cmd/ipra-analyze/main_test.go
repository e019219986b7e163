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
	"ipra/internal/summary"
)

// TestRejectsInvalidSummaries runs the tool on phase-1 records whose
// summary breaks what the analyzer assumes: each must make it exit 1 with
// a message naming the module, not analyze the record.
func TestRejectsInvalidSummaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	dir := t.TempDir()
	tool := filepath.Join(dir, "ipra-analyze")
	// go test puts its own toolchain first on the PATH.
	build := exec.Command("go", "build", "-o", tool, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

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
