package ipra

import (
	"strings"
	"testing"

	"ipra/internal/progen"
)

// analyzerEditConfig is the generated program the source-edit
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
// of source edits through one build directory: for the baseline and every
// Table 4 configuration, a chain of edits of every kind — a comment touch,
// a body change, a new call edge, a new recursion cycle — rebuilt through
// one build directory must produce executables byte-identical to clean
// builds, with the analyzer re-running whole on each.
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

			clean, incr, _ := compileBoth(t, progenSources(mods), cfg, dir, nil)
			assertIdentical(t, cfg.Name+"/initial", clean, incr)

			seed := int64(100)
			for _, kind := range progen.EditKinds() {
				seed++
				edited, desc := progen.Mutate(pcfg, mods, seed, kind)
				if strings.HasPrefix(desc, "no-op (") {
					t.Fatalf("%s: mutation failed: %s", kind, desc)
				}
				clean, incr, _ := compileBoth(t, progenSources(edited), cfg, dir, nil)
				assertIdentical(t, cfg.Name+"/"+desc, clean, incr)
				mods = edited
			}
		})
	}
}
