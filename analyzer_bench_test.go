package ipra

import (
	"context"
	"sync"
	"testing"

	"ipra/internal/core"
	"ipra/internal/progen"
	"ipra/internal/summary"
)

// analyzerWorkloads caches the synthesized summary sets per preset: the
// workload construction (deterministic in the preset's seed) is setup, not
// the thing under measurement.
var analyzerWorkloads sync.Map // preset name -> []*summary.ModuleSummary

func analyzerWorkload(tb testing.TB, preset string) []*summary.ModuleSummary {
	if v, ok := analyzerWorkloads.Load(preset); ok {
		return v.([]*summary.ModuleSummary)
	}
	cfg, err := progen.Preset(preset)
	if err != nil {
		tb.Fatal(err)
	}
	sums := progen.GenerateSummaries(cfg)
	analyzerWorkloads.Store(preset, sums)
	return sums
}

// benchmarkAnalyzer measures one full program-analyzer run — call graph
// construction, count estimation, reference sets, web identification and
// coloring, cluster identification, register usage sets, database assembly
// — over a synthesized whole program.
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
