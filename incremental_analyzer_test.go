package ipra

import (
	"strings"
	"testing"

	"ipra/internal/progen"
)

// analyzerEditConfig is the generated program the incremental-analyzer
// differential runs over: big enough to have cross-module webs and spill
// clusters, small enough to full-build under every configuration.
func analyzerEditConfig() progen.Config {
	return progen.Config{
		Seed:           11,
		Modules:        4,
		ProcsPerModule: 8,
		Globals:        48,
		SubsystemSize:  5,
		Recursion:      true,
		Statics:        true,
		LoopIters:      2,
	}
}

func progenSources(mods []progen.Module) []Source {
	out := make([]Source, len(mods))
	for i, m := range mods {
		out[i] = Source{Name: m.Name, Text: []byte(m.Text)}
	}
	return out
}

// TestIncrementalAnalyzerAcrossSourceEdits is the end-to-end differential
// for the persisted analyzer state: for the baseline and every Table 4
// configuration, a chain of source-level edits of every kind — a comment
// touch, a body change, a new call edge, a new recursion cycle — rebuilt
// through one build directory must produce executables byte-identical to
// clean builds, while the analyzer reuse record shows the expected shape:
// full reuse on the touch, partial rebuild on a body edit, and a declared
// fallback when the call structure changes (a new call edge, a new
// recursion cycle).
func TestIncrementalAnalyzerAcrossSourceEdits(t *testing.T) {
	if testing.Short() {
		t.Skip("full-build differential matrix")
	}
	pcfg := analyzerEditConfig()
	for _, cfg := range determinismConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			mods := progen.Generate(pcfg)

			clean, incr, out := compileBoth(t, progenSources(mods), cfg, dir, nil)
			assertIdentical(t, cfg.Name+"/initial", clean, incr)
			if cfg.UseAnalyzer {
				if out.Analyzer == nil || out.Analyzer.Fallback == "" {
					t.Fatalf("initial build: Analyzer = %+v, want a no-state fallback", out.Analyzer)
				}
			} else if out.Analyzer != nil {
				t.Fatalf("baseline build has an analyzer reuse record: %+v", out.Analyzer)
			}

			seed := int64(100)
			for _, kind := range progen.EditKinds() {
				seed++
				edited, desc := progen.Mutate(pcfg, mods, seed, kind)
				if strings.HasPrefix(desc, "no-op (") {
					t.Fatalf("%s: mutation failed: %s", kind, desc)
				}
				clean, incr, out := compileBoth(t, progenSources(edited), cfg, dir, nil)
				assertIdentical(t, cfg.Name+"/"+desc, clean, incr)

				if cfg.UseAnalyzer {
					r := out.Analyzer
					if r == nil {
						t.Fatalf("%s: no analyzer reuse record", desc)
					}
					switch kind {
					case progen.EditNoop:
						// The touch re-runs phase 1 but leaves the summary
						// identical: everything must be reused.
						if r.Fallback != "" || r.WebsRebuilt != 0 {
							t.Errorf("%s: expected full analyzer reuse, got %+v", desc, r)
						}
					case progen.EditBody:
						if r.Fallback != "" {
							t.Errorf("%s: unexpected analyzer fallback %q", desc, r.Fallback)
						}
						if r.WebsReused == 0 {
							t.Errorf("%s: expected web reuse, got %+v", desc, r)
						}
					case progen.EditCall, progen.EditCycle:
						// A new callee, or a guarded back edge (which also
						// adds a static, eligible global): a declared full
						// analysis.
						if r.Fallback != "call structure changed" {
							t.Errorf("%s: analyzer fallback %q, want %q", desc, r.Fallback, "call structure changed")
						}
					}
				}
				mods = edited
			}
		})
	}
}
