package progen

import (
	"reflect"
	"testing"
)

var profileCfg = Config{
	Seed: 41, Modules: 4, ProcsPerModule: 8, Globals: 32,
	SubsystemSize: 4, Recursion: true, Statics: true, LoopIters: 3,
}

// TestSynthesizeProfileDeterministic: equal (cfg, phase) inputs produce
// deeply equal profiles, and generating a profile must not perturb the
// program generator (layout randomness is all re-derived from the seed,
// never shared).
func TestSynthesizeProfileDeterministic(t *testing.T) {
	before := Generate(profileCfg)
	a := SynthesizeProfile(profileCfg, 1)
	b := SynthesizeProfile(profileCfg, 1)
	if !reflect.DeepEqual(a, b) {
		t.Error("two syntheses differ")
	}
	if len(a.Edges) == 0 || len(a.Calls) == 0 {
		t.Error("empty profile")
	}
	after := Generate(profileCfg)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("SynthesizeProfile perturbed Generate's output")
	}
}

// TestSynthesizeProfileConsistent: every procedure's call count equals
// the sum of its incoming edge counts — the structural invariant a real
// simulator profile satisfies, which ApplyProfile relies on.
func TestSynthesizeProfileConsistent(t *testing.T) {
	for phase := 0; phase < 3; phase++ {
		p := SynthesizeProfile(profileCfg, phase)
		sums := make(map[string]uint64)
		for k, n := range p.Edges {
			sums[k.Callee] += n
		}
		for name, want := range sums {
			if p.Calls[name] != want {
				t.Errorf("phase %d: Calls[%s] = %d, edge sum %d", phase, name, p.Calls[name], want)
			}
		}
		if len(sums) != len(p.Calls) {
			t.Errorf("phase %d: %d called procs, %d edge targets", phase, len(p.Calls), len(sums))
		}
	}
}

// TestSynthesizeProfileShapes: the phase moves the hot set, so
// successive phases produce different profiles.
func TestSynthesizeProfileShapes(t *testing.T) {
	s0 := SynthesizeProfile(profileCfg, 0)
	s1 := SynthesizeProfile(profileCfg, 1)
	if reflect.DeepEqual(s0, s1) {
		t.Error("phase 0 and 1 produced identical profiles")
	}
}

// TestSynthesizeProfileSkew: the hottest procedure dominates the coldest
// by a wide margin. Guards against the weight function collapsing to
// flat.
func TestSynthesizeProfileSkew(t *testing.T) {
	minN, maxN := ^uint64(0), uint64(0)
	for _, n := range SynthesizeProfile(profileCfg, 0).Calls {
		minN, maxN = min(minN, n), max(maxN, n)
	}
	if maxN/max(minN, 1) < 4 {
		t.Errorf("spread %d/%d too flat", maxN, minN)
	}
}
