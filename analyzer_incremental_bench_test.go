package ipra

import (
	"context"
	"testing"

	"ipra/internal/core"
	"ipra/internal/progen"
	"ipra/internal/summary"
)

// benchmarkIncrementalAnalyzer measures per-edit analysis latency: starting
// from a primed analyzer state over a synthesized whole program, each
// iteration re-analyzes incrementally across exactly one seeded edit of the
// given kind, ping-ponging between the base program and its edited twin so
// every iteration pays the same single-edit delta (a chained benchmark
// would instead mutate the workload out from under itself). Compare against
// the matching BenchmarkAnalyzer* run (BENCH_analyzer.json), which is the
// clean-analysis cost the incremental path avoids. Noop and body edits
// patch; call and cycle edits change the call structure and measure the
// declared fallback (a clean analysis plus a state reusing the untouched
// modules' stamps).
func benchmarkIncrementalAnalyzer(b *testing.B, preset string, kind progen.EditKind) {
	cfg, err := progen.Preset(preset)
	if err != nil {
		b.Fatal(err)
	}
	base := analyzerWorkload(b, preset)
	mut, _ := progen.MutateSummaries(cfg, base, 1, kind)
	var dirty []string
	for i := range mut {
		if base[i] != mut[i] {
			dirty = append(dirty, mut[i].Module)
		}
	}

	opt := core.DefaultOptions()
	opt.Jobs = 1
	ctx := context.Background()
	res, err := core.Analyze(ctx, base, opt)
	if err != nil {
		b.Fatal(err)
	}
	st := core.NewState(res, base, opt)
	if r := st.Unsupported(); r != "" {
		b.Fatalf("state unsupported: %s", r)
	}

	progs := [2][]*summary.ModuleSummary{mut, base}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, st2, rs, err := core.AnalyzeIncremental(ctx, progs[i%2], opt, st, dirty)
		if err != nil {
			b.Fatal(err)
		}
		patched := kind == progen.EditNoop || kind == progen.EditBody
		if patched != (rs.Fallback == "") {
			b.Fatalf("%s edit: fallback %q", kind, rs.Fallback)
		}
		if len(res.DB.Procs) == 0 {
			b.Fatal("analyzer produced an empty database")
		}
		st = st2
	}
}

func BenchmarkIncrementalAnalyzerSmallNoop(b *testing.B) {
	benchmarkIncrementalAnalyzer(b, "small", progen.EditNoop)
}
func BenchmarkIncrementalAnalyzerSmallBody(b *testing.B) {
	benchmarkIncrementalAnalyzer(b, "small", progen.EditBody)
}
func BenchmarkIncrementalAnalyzerSmallCall(b *testing.B) {
	benchmarkIncrementalAnalyzer(b, "small", progen.EditCall)
}
func BenchmarkIncrementalAnalyzerMediumNoop(b *testing.B) {
	benchmarkIncrementalAnalyzer(b, "medium", progen.EditNoop)
}
func BenchmarkIncrementalAnalyzerMediumBody(b *testing.B) {
	benchmarkIncrementalAnalyzer(b, "medium", progen.EditBody)
}
func BenchmarkIncrementalAnalyzerMediumCall(b *testing.B) {
	benchmarkIncrementalAnalyzer(b, "medium", progen.EditCall)
}
func BenchmarkIncrementalAnalyzerLargeNoop(b *testing.B) {
	benchmarkIncrementalAnalyzer(b, "large", progen.EditNoop)
}
func BenchmarkIncrementalAnalyzerLargeBody(b *testing.B) {
	benchmarkIncrementalAnalyzer(b, "large", progen.EditBody)
}
func BenchmarkIncrementalAnalyzerLargeCall(b *testing.B) {
	benchmarkIncrementalAnalyzer(b, "large", progen.EditCall)
}

// The cycle edit always falls back to a full analysis (the call structure
// changed); these runs document the fallback cost staying at the
// clean-analysis baseline rather than regressing.
func BenchmarkIncrementalAnalyzerSmallCycleFallback(b *testing.B) {
	benchmarkIncrementalAnalyzer(b, "small", progen.EditCycle)
}
func BenchmarkIncrementalAnalyzerMediumCycleFallback(b *testing.B) {
	benchmarkIncrementalAnalyzer(b, "medium", progen.EditCycle)
}
func BenchmarkIncrementalAnalyzerLargeCycleFallback(b *testing.B) {
	benchmarkIncrementalAnalyzer(b, "large", progen.EditCycle)
}
