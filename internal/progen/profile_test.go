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
	if len(a.Edges) == 0 {
		t.Error("empty profile")
	}
	after := Generate(profileCfg)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("SynthesizeProfile perturbed Generate's output")
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
	calls := make(map[string]uint64)
	for k, n := range SynthesizeProfile(profileCfg, 0).Edges {
		calls[k.Callee] += n
	}
	minN, maxN := ^uint64(0), uint64(0)
	for _, n := range calls {
		minN, maxN = min(minN, n), max(maxN, n)
	}
	if maxN/max(minN, 1) < 4 {
		t.Errorf("spread %d/%d too flat", maxN, minN)
	}
}
