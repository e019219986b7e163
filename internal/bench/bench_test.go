package bench

import (
	"context"
	"strings"
	"testing"

	"ipra"
	"ipra/internal/benchprogs"
	"ipra/internal/core"
)

// TestRunUnknownBenchmarkListsValidNames pins the error contract: a
// mistyped -bench name must name every valid benchmark so the caller can
// correct it without digging through the source.
func TestRunUnknownBenchmarkListsValidNames(t *testing.T) {
	_, err := Run(context.Background(), Options{Benchmarks: []string{"no-such-benchmark"}})
	if err == nil {
		t.Fatal("Run accepted an unknown benchmark name")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"no-such-benchmark"`) {
		t.Errorf("error does not quote the offending name: %s", msg)
	}
	for _, b := range benchprogs.All() {
		if !strings.Contains(msg, b.Name) {
			t.Errorf("error does not list valid benchmark %q: %s", b.Name, msg)
		}
	}
}

// TestDifferentialOracleAgainstDisabledIPRA is the runtime ground truth
// the static verifier approximates: for every benchmark, a build compiled
// under full IPRA directives (config C: web coloring + spill code motion)
// must behave identically to the same analyzer pipeline with promotion
// and spill motion disabled. The interprocedural allocation may only move
// values between registers and memory — never change observable output.
func TestDifferentialOracleAgainstDisabledIPRA(t *testing.T) {
	benches := benchprogs.All()
	if testing.Short() {
		benches = benches[:2]
	}
	full, err := ipra.PresetByName("C")
	if err != nil {
		t.Fatal(err)
	}
	off := full
	off.Name = "C-disabled"
	off.Analyzer.Promotion = core.PromoteNone
	off.Analyzer.SpillMotion = false

	for _, b := range benches {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			files, err := b.Sources()
			if err != nil {
				t.Fatal(err)
			}
			var sources []ipra.Source
			for _, f := range files {
				sources = append(sources, ipra.Source{Name: f.Name, Text: f.Text})
			}
			run := func(cfg ipra.Config, opts ...ipra.BuildOption) (int32, string) {
				p, err := ipra.Build(context.Background(), sources, cfg, opts...)
				if err != nil {
					t.Fatalf("%s compile: %v", cfg.Name, err)
				}
				res, err := p.Run(b.MaxInstrs, false)
				if err != nil {
					t.Fatalf("%s run: %v", cfg.Name, err)
				}
				return res.Exit, res.Output
			}
			wantExit, wantOut := run(off)
			gotExit, gotOut := run(full, ipra.WithVerify())
			if gotExit != wantExit || gotOut != wantOut {
				t.Errorf("IPRA build behaves differently: exit/output (%d,%q) vs disabled (%d,%q)",
					gotExit, gotOut, wantExit, wantOut)
			}
		})
	}
}
