package ipra

import (
	"context"
	"sync"
	"testing"

	"ipra/internal/core"
	"ipra/internal/progen"
	"ipra/internal/summary"
)

// analyzerWorkloads caches the summary sets per preset: compiling the
// preset's program through phase 1 (deterministic in the preset's seed) is
// setup, not the thing under measurement.
var analyzerWorkloads sync.Map // preset name -> []*summary.ModuleSummary

func analyzerWorkload(tb testing.TB, preset string) []*summary.ModuleSummary {
	if v, ok := analyzerWorkloads.Load(preset); ok {
		return v.([]*summary.ModuleSummary)
	}
	cfg, err := progen.Preset(preset)
	if err != nil {
		tb.Fatal(err)
	}
	sums := phase1Summaries(tb, cfg)
	analyzerWorkloads.Store(preset, sums)
	return sums
}

// phase1Summaries compiles the program progen generates for cfg through
// phase 1 and returns its summaries in generation order, what ipra-analyze
// reads from the modules' .p1 records.
func phase1Summaries(tb testing.TB, cfg progen.Config) []*summary.ModuleSummary {
	tb.Helper()
	var sums []*summary.ModuleSummary
	for _, src := range progenSources(progen.Generate(cfg)) {
		_, ms, err := Phase1(src)
		if err != nil {
			tb.Fatal(err)
		}
		sums = append(sums, ms)
	}
	return sums
}

// benchmarkAnalyzer measures one full program-analyzer run — call graph
// construction, count estimation, reference sets, web identification and
// coloring, cluster identification, register usage sets, database assembly
// — over the phase-1 summaries of a generated whole program.
func benchmarkAnalyzer(b *testing.B, preset string) {
	sums := analyzerWorkload(b, preset)
	opt := core.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Analyze(context.Background(), sums, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.DB.Procs) == 0 {
			b.Fatal("analyzer produced an empty database")
		}
	}
}

func BenchmarkAnalyzerSmall(b *testing.B)  { benchmarkAnalyzer(b, "small") }
func BenchmarkAnalyzerMedium(b *testing.B) { benchmarkAnalyzer(b, "medium") }
func BenchmarkAnalyzerLarge(b *testing.B)  { benchmarkAnalyzer(b, "large") }
