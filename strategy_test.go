package ipra

import (
	"bytes"
	"context"
	"testing"

	"ipra/internal/benchprogs"
)

// TestStrategyDifferential builds generated programs under every
// strategy crossed with the baseline and every Table 4
// configuration, with the allocation verifier on, and checks behaviour
// against the L2 baseline. A strategy is free to allocate badly; it is
// never free to change what the program computes or to violate the
// paper's allocation invariants.
func TestStrategyDifferential(t *testing.T) {
	configs := append([]string{"L2"}, "A", "B", "C", "D", "E", "F")
	for _, seed := range []int64{31, 32} {
		sources := genSources(seed)

		base, err := Build(context.Background(), sources, MustPreset("L2"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.Run(100_000_000, false)
		if err != nil {
			t.Fatal(err)
		}

		for _, strat := range StrategyNames() {
			for _, name := range configs {
				cfg := MustPreset(name).WithStrategy(strat)
				var opts []BuildOption
				opts = append(opts, WithVerify())
				if cfg.WantProfile {
					opts = append(opts, WithProfile(100_000_000))
				}
				p, err := Build(context.Background(), sources, cfg, opts...)
				if err != nil {
					t.Fatalf("seed %d %s/%s: %v", seed, name, strat, err)
				}
				got, err := p.Run(100_000_000, false)
				if err != nil {
					t.Fatalf("seed %d %s/%s: %v", seed, name, strat, err)
				}
				if got.Exit != want.Exit || got.Output != want.Output {
					t.Errorf("seed %d: %s/%s exit %d != L2 %d",
						seed, name, strat, got.Exit, want.Exit)
				}
			}
		}
	}
}

// TestSpillEverywhereLowerBound pins the floor of the strategy matrix.
// The spill-everywhere formulation of Bouchez et al. (promote nothing,
// no spill motion, the standard linkage convention everywhere) is the L2
// baseline, so on dhrystone under configuration C no strategy may take
// more cycles than L2.
func TestSpillEverywhereLowerBound(t *testing.T) {
	b, err := benchprogs.ByName("dhrystone")
	if err != nil {
		t.Fatal(err)
	}
	sources := benchSources(t, b)

	base, err := Build(context.Background(), sources, MustPreset("L2"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Run(b.MaxInstrs, false)
	if err != nil {
		t.Fatal(err)
	}

	for _, strat := range StrategyNames() {
		p, err := Build(context.Background(), sources, MustPreset("C").WithStrategy(strat), WithVerify())
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		got, err := p.Run(b.MaxInstrs, false)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if got.Exit != want.Exit {
			t.Fatalf("%s: exit %d != L2 %d", strat, got.Exit, want.Exit)
		}
		t.Logf("%s: cycles=%d (L2 %d, saved %d)",
			strat, got.Stats.Cycles, want.Stats.Cycles,
			int64(want.Stats.Cycles)-int64(got.Stats.Cycles))
		if got.Stats.Cycles > want.Stats.Cycles {
			t.Errorf("%s took %d cycles, more than L2's %d — below the spill-everywhere floor",
				strat, got.Stats.Cycles, want.Stats.Cycles)
		}
	}
}

// TestStrategySwitchInvalidatesBuildDir checks the incremental driver's
// options hash: rebuilding a warmed build directory under a different
// strategy must not serve the previous strategy's analysis, and the
// result must be byte-identical to a clean build under the new strategy.
func TestStrategySwitchInvalidatesBuildDir(t *testing.T) {
	sources := genSources(33)
	dir := t.TempDir()

	first, err := Build(context.Background(), sources, MustPreset("C"), WithBuildDir(dir))
	if err != nil {
		t.Fatal(err)
	}

	switched, err := Build(context.Background(), sources, MustPreset("C").WithStrategy("tiling"),
		WithBuildDir(dir))
	if err != nil {
		t.Fatal(err)
	}

	clean, err := Build(context.Background(), sources, MustPreset("C").WithStrategy("tiling"))
	if err != nil {
		t.Fatal(err)
	}
	// The premise: the two strategies disagree on this program, so a build
	// dir serving the stale priority analysis would show in the bytes.
	if bytes.Equal(exeBytes(t, clean.Exe), exeBytes(t, first.Exe)) {
		t.Fatal("tiling and priority build identical executables; the test cannot see a stale analysis")
	}
	if !bytes.Equal(exeBytes(t, switched.Exe), exeBytes(t, clean.Exe)) {
		t.Error("strategy switch over a warm build dir differs from a clean build")
	}

	// Switching back must reproduce the original bytes, again through the
	// same warmed directory.
	back, err := Build(context.Background(), sources, MustPreset("C"), WithBuildDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exeBytes(t, back.Exe), exeBytes(t, first.Exe)) {
		t.Error("switching the strategy back does not reproduce the original executable")
	}
}
