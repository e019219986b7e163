package ipra

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"ipra/internal/benchprogs"
	"ipra/internal/parv"
	"ipra/internal/pipeline"
)

// exeBytes canonically serializes an executable for comparison, using the
// wire encoding (deterministic by construction, maps included).
func exeBytes(t testing.TB, exe *parv.Executable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := parv.EncodeExecutable(&buf, exe); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// determinismConfigs is the determinism matrix: the baseline plus Table 4 A–F.
func determinismConfigs() []Config {
	return append([]Config{MustPreset("L2")}, Configs()...)
}

// TestParallelCompileDeterminism checks that a parallel, cache-served
// build produces byte-identical executables, the same directive database
// and identical analyzer reports to a sequential, cache-bypassing one,
// for the baseline and every Table 4 configuration.
func TestParallelCompileDeterminism(t *testing.T) {
	ResetPhase1Cache()
	for _, b := range []string{"dhrystone", "crtool"} {
		bm, err := benchprogs.ByName(b)
		if err != nil {
			t.Fatal(err)
		}
		sources := benchSources(t, bm)
		for _, cfg := range determinismConfigs() {
			seqCfg := cfg
			seqCfg.Jobs = 1
			seqCfg.DisableCache = true
			parCfg := cfg
			parCfg.Jobs = 8

			seq, err := Build(context.Background(), sources, seqCfg)
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", b, cfg.Name, err)
			}
			// Twice in parallel: the first run fills the cache, the
			// second is served from it; both must match the sequential
			// output exactly.
			for _, label := range []string{"parallel-cold", "parallel-cached"} {
				par, err := Build(context.Background(), sources, parCfg)
				if err != nil {
					t.Fatalf("%s/%s %s: %v", b, cfg.Name, label, err)
				}
				if !bytes.Equal(exeBytes(t, seq.Exe), exeBytes(t, par.Exe)) {
					t.Errorf("%s/%s: %s executable differs from sequential", b, cfg.Name, label)
				}
				if !reflect.DeepEqual(seq.Exe, par.Exe) {
					t.Errorf("%s/%s: %s executable struct differs from sequential", b, cfg.Name, label)
				}
				if (seq.DB == nil) != (par.DB == nil) {
					t.Fatalf("%s/%s: %s database presence differs", b, cfg.Name, label)
				}
				if seq.DB != nil && seq.DB.Hash() != par.DB.Hash() {
					t.Errorf("%s/%s: %s directive database hash differs from sequential", b, cfg.Name, label)
				}
				if (seq.Analysis == nil) != (par.Analysis == nil) {
					t.Fatalf("%s/%s: %s analysis presence differs", b, cfg.Name, label)
				}
				if seq.Analysis != nil && seq.Analysis.Report() != par.Analysis.Report() {
					t.Errorf("%s/%s: %s analyzer report differs:\nseq:\n%spar:\n%s",
						b, cfg.Name, label, seq.Analysis.Report(), par.Analysis.Report())
				}
			}
		}
	}
}

// TestAnalyzerParallelDeterminism checks that the program analyzer's
// output does not depend on the build's job count: with the cache
// bypassed on both sides, a build whose phase-1 and summary pools run 8
// workers hands the analyzer the same program, so it must emit the same
// directive database, and the same final executable, as a build on one
// goroutine, for the baseline and every Table 4 configuration.
func TestAnalyzerParallelDeterminism(t *testing.T) {
	ResetPhase1Cache()
	for _, b := range []string{"dhrystone", "crtool"} {
		bm, err := benchprogs.ByName(b)
		if err != nil {
			t.Fatal(err)
		}
		sources := benchSources(t, bm)
		for _, cfg := range determinismConfigs() {
			seqCfg := cfg
			seqCfg.Jobs = 1
			seqCfg.DisableCache = true
			parCfg := cfg
			parCfg.Jobs = 8
			parCfg.DisableCache = true

			seq, err := Build(context.Background(), sources, seqCfg)
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", b, cfg.Name, err)
			}
			par, err := Build(context.Background(), sources, parCfg)
			if err != nil {
				t.Fatalf("%s/%s parallel: %v", b, cfg.Name, err)
			}

			if (seq.DB == nil) != (par.DB == nil) {
				t.Fatalf("%s/%s: database presence differs", b, cfg.Name)
			}
			if seq.DB != nil && seq.DB.Hash() != par.DB.Hash() {
				t.Errorf("%s/%s: directive database hash differs between jobs=1 and jobs=8",
					b, cfg.Name)
			}
			if !bytes.Equal(exeBytes(t, seq.Exe), exeBytes(t, par.Exe)) {
				t.Errorf("%s/%s: jobs=8 executable differs from jobs=1", b, cfg.Name)
			}
		}
	}
}

// TestParallelCompileProfiledDeterminism covers the profile-guided path
// (compile, train on the VM, re-analyze, re-compile) the same way.
func TestParallelCompileProfiledDeterminism(t *testing.T) {
	ResetPhase1Cache()
	bm, err := benchprogs.ByName("dhrystone")
	if err != nil {
		t.Fatal(err)
	}
	sources := benchSources(t, bm)

	seqCfg := MustPreset("F")
	seqCfg.Jobs = 1
	seqCfg.DisableCache = true
	seq, err := Build(context.Background(), sources, seqCfg, WithProfile(bm.MaxInstrs))
	if err != nil {
		t.Fatal(err)
	}

	parCfg := MustPreset("F")
	parCfg.Jobs = 8
	par, err := Build(context.Background(), sources, parCfg, WithProfile(bm.MaxInstrs))
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(exeBytes(t, seq.Exe), exeBytes(t, par.Exe)) {
		t.Error("profiled executable differs between sequential and parallel compilation")
	}
	if seq.Analysis.Report() != par.Analysis.Report() {
		t.Error("profiled analyzer report differs between sequential and parallel compilation")
	}
}

// TestParallelCompileRace saturates the worker pool: every benchmark of
// the suite compiles concurrently, each itself fanning modules across
// workers, with the shared cache in play. Run under -race this checks
// the phase-1/phase-2 concurrency and the cache's locking.
func TestParallelCompileRace(t *testing.T) {
	ResetPhase1Cache()
	suite := benchprogs.All()
	err := pipeline.ForEach(4, len(suite), func(i int) error {
		sources := benchSources(t, suite[i])
		cfg := MustPreset("C")
		cfg.Jobs = 8
		_, err := Build(context.Background(), sources, cfg)
		if err != nil {
			return err
		}
		// Second compile of the same program: exercises concurrent
		// cache hits while sibling benchmarks still fill theirs.
		cfg2 := MustPreset("L2")
		cfg2.Jobs = 8
		_, err = Build(context.Background(), sources, cfg2)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPhase1CacheReuse checks the cache accounting: the first compile of
// a program misses once per module, every recompile (any configuration)
// hits, and cached compiles match uncached ones exactly.
func TestPhase1CacheReuse(t *testing.T) {
	ResetPhase1Cache()
	bm, err := benchprogs.ByName("fgrep")
	if err != nil {
		t.Fatal(err)
	}
	sources := benchSources(t, bm)

	if _, err := Build(context.Background(), sources, MustPreset("L2")); err != nil {
		t.Fatal(err)
	}
	s := Phase1CacheStats()
	if s.Misses != uint64(len(sources)) || s.Hits != 0 {
		t.Fatalf("cold compile: stats = %+v, want %d misses, 0 hits", s, len(sources))
	}

	cached, err := Build(context.Background(), sources, MustPreset("C"))
	if err != nil {
		t.Fatal(err)
	}
	s = Phase1CacheStats()
	if s.Hits != uint64(len(sources)) {
		t.Fatalf("warm compile: stats = %+v, want %d hits", s, len(sources))
	}

	cold := MustPreset("C")
	cold.DisableCache = true
	uncached, err := Build(context.Background(), sources, cold)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exeBytes(t, cached.Exe), exeBytes(t, uncached.Exe)) {
		t.Error("cache-served compile differs from cold compile")
	}
	if s := Phase1CacheStats(); s.Entries != len(sources) {
		t.Errorf("entries = %d, want %d", s.Entries, len(sources))
	}
}
