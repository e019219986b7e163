package ipra

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"ipra/internal/benchprogs"
	"ipra/internal/profagg"
	"ipra/internal/progen"
)

var aggTestCfg = progen.Config{
	Seed: 41, Modules: 4, ProcsPerModule: 8, Globals: 32,
	SubsystemSize: 4, Recursion: true, Statics: true, LoopIters: 3,
}

func aggTestSources(t *testing.T) []Source {
	t.Helper()
	mods := progen.Generate(aggTestCfg)
	srcs := make([]Source, len(mods))
	for i, m := range mods {
		srcs[i] = Source{Name: m.Name, Text: []byte(m.Text)}
	}
	return srcs
}

// TestWithAggregatedProfileByteIdentity pins the property the drift
// pipeline's retrain step depends on: building with an externally
// supplied profile is byte-identical to any other path that feeds the
// analyzer the same counts — the combined WithProfile+WithAggregatedProfile
// route (training skipped) and the incremental route through a persistent
// build directory.
func TestWithAggregatedProfileByteIdentity(t *testing.T) {
	ctx := context.Background()
	srcs := aggTestSources(t)
	cfg := MustPreset("B")
	prof := progen.SynthesizeProfile(aggTestCfg, 1)

	agg, err := Build(ctx, srcs, cfg, WithAggregatedProfile(prof), WithVerify())
	if err != nil {
		t.Fatalf("aggregated build: %v", err)
	}
	if agg.Train != nil {
		t.Fatal("aggregated build ran a training pass")
	}
	want := exeBytes(t, agg.Program.Exe)

	both, err := Build(ctx, srcs, cfg, WithProfile(1_000_000), WithAggregatedProfile(prof))
	if err != nil {
		t.Fatalf("combined build: %v", err)
	}
	if both.Train != nil {
		t.Fatal("WithAggregatedProfile did not suppress the training run")
	}
	if !bytes.Equal(want, exeBytes(t, both.Program.Exe)) {
		t.Fatal("combined build differs from aggregated build")
	}

	dir := t.TempDir()
	incr, err := Build(ctx, srcs, cfg, WithAggregatedProfile(prof), WithBuildDir(dir))
	if err != nil {
		t.Fatalf("incremental aggregated build: %v", err)
	}
	if !bytes.Equal(want, exeBytes(t, incr.Program.Exe)) {
		t.Fatal("incremental aggregated build differs from in-memory")
	}
	again, err := Build(ctx, srcs, cfg, WithAggregatedProfile(prof), WithBuildDir(dir))
	if err != nil {
		t.Fatalf("incremental rebuild: %v", err)
	}
	if !bytes.Equal(want, exeBytes(t, again.Program.Exe)) {
		t.Fatal("no-edit incremental rebuild changed the output")
	}
}

// TestAggregatedProfileMeanMatchesTraining closes the loop with profagg:
// a fleet of identical runs of the trained binary aggregates to a mean
// profile whose build is byte-identical to the original profiled build.
func TestAggregatedProfileMeanMatchesTraining(t *testing.T) {
	ctx := context.Background()
	srcs := aggTestSources(t)
	cfg := MustPreset("B")

	trained, err := Build(ctx, srcs, cfg, WithProfile(5_000_000))
	if err != nil {
		t.Fatalf("profiled build: %v", err)
	}
	if trained.Train == nil || trained.Train.Profile == nil {
		t.Fatal("profiled build produced no training profile")
	}

	a := profagg.NewAggregate(ToolchainFingerprint(), "prog", trained.Program.DB.Hash())
	a.AddRuns(trained.Train.Profile, 9)

	rebuilt, err := Build(ctx, srcs, cfg, WithAggregatedProfile(a.MeanProfile()))
	if err != nil {
		t.Fatalf("aggregated rebuild: %v", err)
	}
	if !bytes.Equal(exeBytes(t, trained.Program.Exe), exeBytes(t, rebuilt.Program.Exe)) {
		t.Fatal("mean-profile rebuild differs from the original profiled build")
	}
}

// TestProfiledConfigsTrainWithoutOptions: Build alone decides where a
// profiled configuration's counts come from, so B and F given no option
// still train, and equal the builds whose training run WithProfile bounds
// (fgrep finishes under both bounds). Their executables differ from A's
// and C's, which share everything with them but the counts.
func TestProfiledConfigsTrainWithoutOptions(t *testing.T) {
	ctx := context.Background()
	b, err := benchprogs.ByName("fgrep")
	if err != nil {
		t.Fatal(err)
	}
	srcs := benchSources(t, b)
	for _, pair := range [][2]string{{"B", "A"}, {"F", "C"}} {
		bare, err := Build(ctx, srcs, MustPreset(pair[0]))
		if err != nil {
			t.Fatal(err)
		}
		if bare.Train == nil {
			t.Errorf("%s without options ran no training pass", pair[0])
		}
		bounded, err := Build(ctx, srcs, MustPreset(pair[0]), WithProfile(b.MaxInstrs))
		if err != nil {
			t.Fatal(err)
		}
		heuristic, err := Build(ctx, srcs, MustPreset(pair[1]))
		if err != nil {
			t.Fatal(err)
		}
		got := exeBytes(t, bare.Exe)
		if !bytes.Equal(got, exeBytes(t, bounded.Exe)) {
			t.Errorf("%s without options differs from %s WithProfile(%d)", pair[0], pair[0], b.MaxInstrs)
		}
		if bytes.Equal(got, exeBytes(t, heuristic.Exe)) {
			t.Errorf("%s without options compiled as %s", pair[0], pair[1])
		}
	}
}

// TestTrainingRunBoundedByDefault: a training run that WithProfile does
// not bound stops at 100 M instructions, so a profiled build of a program
// that never halts fails in about a second instead of running on to the
// simulator's own bound.
func TestTrainingRunBoundedByDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 100 M instructions")
	}
	spin := Source{Name: "spin.mc", Text: []byte("int main() { int i = 0; while (1) { i = i + 1; } return i; }\n")}
	_, err := Build(context.Background(), []Source{spin}, MustPreset("B"))
	if err == nil || !strings.Contains(err.Error(), "instruction limit (100000000) exceeded") {
		t.Fatalf("B build of a program that never halts: err = %v, want the 100 M instruction limit", err)
	}
}

// TestAggregatedProfileNeedsProfiledConfig: counts supplied to a
// configuration that estimates its own are an error naming it, not a
// silently ignored option.
func TestAggregatedProfileNeedsProfiledConfig(t *testing.T) {
	srcs := aggTestSources(t)
	_, err := Build(context.Background(), srcs, MustPreset("C"), WithAggregatedProfile(progen.SynthesizeProfile(aggTestCfg, 0)))
	if err == nil || !strings.Contains(err.Error(), "configuration C") {
		t.Fatalf("WithAggregatedProfile on C: err = %v, want one naming configuration C", err)
	}
}
