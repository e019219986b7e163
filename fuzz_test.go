package ipra

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ipra/internal/progen"
)

// TestDifferentialGeneratedPrograms is the pipeline's strongest
// correctness check: for a battery of generated multi-module programs
// (random call DAGs, subsystem-localized globals, statics, recursion,
// indirect calls), every compiler configuration must produce a program
// with identical observable behaviour. Any disagreement is a
// miscompilation in the optimizer, the analyzer's directives, or the code
// generator.
func TestDifferentialGeneratedPrograms(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := progen.Config{
				Seed:           seed,
				Modules:        3,
				ProcsPerModule: 8,
				Globals:        40,
				SubsystemSize:  4,
				Recursion:      true,
				IndirectCalls:  seed%2 == 0,
				Statics:        true,
				LoopIters:      2,
			}
			mods := progen.Generate(cfg)
			var sources []Source
			for _, m := range mods {
				sources = append(sources, Source{Name: m.Name, Text: []byte(m.Text)})
			}

			base, err := Build(context.Background(), sources, MustPreset("L2"))
			if err != nil {
				t.Fatalf("L2 compile: %v", err)
			}
			want, err := base.Run(100_000_000, false)
			if err != nil {
				t.Fatalf("L2 run: %v", err)
			}

			for _, c := range Configs() {
				// Every fuzz input is also run through the allocation
				// invariant verifier; a violation fails the build here.
				opts := []BuildOption{WithVerify()}
				if c.WantProfile {
					opts = append(opts, WithProfile(100_000_000))
				}
				p, err := Build(context.Background(), sources, c, opts...)
				if err != nil {
					t.Fatalf("%s compile: %v", c.Name, err)
				}
				got, err := p.Run(100_000_000, false)
				if err != nil {
					t.Fatalf("%s run: %v", c.Name, err)
				}
				if got.Exit != want.Exit || got.Output != want.Output {
					t.Errorf("%s: exit/output (%d,%q) differ from L2 (%d,%q)",
						c.Name, got.Exit, got.Output, want.Exit, want.Output)
				}
			}
		})
	}
}

// spillShapes are program shapes whose register pressure makes the code
// generator spill: seed 102's shape, and the shapes of a 300-seed sweep
// (sweepShape) that once failed with "register allocation did not
// converge" because each round spilled a reload temporary of the last.
func spillShapes() []progen.Config {
	shapes := []progen.Config{{Seed: 102, Modules: 2, ProcsPerModule: 4, Globals: 74,
		SubsystemSize: 7, Recursion: true, Statics: true, LoopIters: 3}}
	for _, seed := range []int64{6, 25, 31, 35, 60, 66, 68, 129, 135, 146, 183, 209, 223, 235, 288, 295, 298} {
		shapes = append(shapes, sweepShape(seed))
	}
	return shapes
}

// sweepShape draws a program shape from seed, in the field order of the
// sweep that found the allocator's loop; Recursion and Statics are on, as
// ipra-progen sets them.
func sweepShape(seed int64) progen.Config {
	rng := rand.New(rand.NewSource(seed))
	c := progen.Config{Seed: seed, Recursion: true, Statics: true}
	c.Modules = 2 + rng.Intn(6)
	c.ProcsPerModule = 4 + rng.Intn(17)
	c.Globals = 8 + rng.Intn(70)
	c.SubsystemSize = 2 + rng.Intn(7)
	c.LoopIters = 1 + rng.Intn(3)
	return c
}

// TestSpillingShapesBuild builds the spilling shapes under L2 and every
// configuration A-F with the verifier on: each build must succeed and
// behave like L2's.
func TestSpillingShapesBuild(t *testing.T) {
	shapes := spillShapes()
	if testing.Short() {
		shapes = shapes[:1]
	}
	for _, shape := range shapes {
		shape := shape
		t.Run(fmt.Sprintf("seed%d", shape.Seed), func(t *testing.T) {
			sources := progenSources(progen.Generate(shape))
			base, err := Build(context.Background(), sources, MustPreset("L2"), WithVerify())
			if err != nil {
				t.Fatalf("L2 compile: %v", err)
			}
			want, err := base.Run(100_000_000, false)
			if err != nil {
				t.Fatalf("L2 run: %v", err)
			}
			for _, c := range Configs() {
				opts := []BuildOption{WithVerify()}
				if c.WantProfile {
					opts = append(opts, WithProfile(100_000_000))
				}
				p, err := Build(context.Background(), sources, c, opts...)
				if err != nil {
					t.Fatalf("%s compile: %v", c.Name, err)
				}
				got, err := p.Run(100_000_000, false)
				if err != nil {
					t.Fatalf("%s run: %v", c.Name, err)
				}
				if got.Exit != want.Exit || got.Output != want.Output {
					t.Errorf("%s: exit/output (%d,%q) differ from L2 (%d,%q)",
						c.Name, got.Exit, got.Output, want.Exit, want.Output)
				}
			}
		})
	}
}

// genSources builds the standard fuzz corpus program for a seed.
func genSources(seed int64) []Source {
	mods := progen.Generate(progen.Config{
		Seed:           seed,
		Modules:        3,
		ProcsPerModule: 8,
		Globals:        40,
		SubsystemSize:  4,
		Recursion:      true,
		IndirectCalls:  seed%2 == 0,
		Statics:        true,
		LoopIters:      2,
	})
	var sources []Source
	for _, m := range mods {
		sources = append(sources, Source{Name: m.Name, Text: []byte(m.Text)})
	}
	return sources
}

// TestProgenDeterministic ensures generated programs are reproducible (the
// census and fuzz corpora must be stable).
func TestProgenDeterministic(t *testing.T) {
	cfg := progen.DefaultCensusConfig()
	a := progen.Generate(cfg)
	b := progen.Generate(cfg)
	if len(a) != len(b) {
		t.Fatal("module counts differ")
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Text != b[i].Text {
			t.Fatalf("module %d differs between runs", i)
		}
	}
}

// TestGeneratedProgramScale sanity-checks that the census configuration
// produces the intended scale.
func TestGeneratedProgramScale(t *testing.T) {
	mods := progen.Generate(progen.DefaultCensusConfig())
	if len(mods) != 10 {
		t.Errorf("modules = %d", len(mods))
	}
	total := 0
	for _, m := range mods {
		total += len(m.Text)
	}
	if total < 50_000 {
		t.Errorf("census program only %d bytes of source", total)
	}
}
