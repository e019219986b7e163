package progen

import (
	"reflect"
	"testing"
)

// TestGenerateDeterministic: generation must be a pure function of the
// Config — the explicit seed is the only randomness source.
func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Modules: 3, ProcsPerModule: 5, Globals: 12, Statics: true, IndirectCalls: true, Recursion: true}
	a := Generate(cfg)
	b := Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate is not deterministic in the seed")
	}
	c := Generate(Config{Seed: 8, Modules: 3, ProcsPerModule: 5, Globals: 12, Statics: true, IndirectCalls: true, Recursion: true})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical programs")
	}
}

// TestPresets: every published preset resolves and scales as documented.
func TestPresets(t *testing.T) {
	sizes := map[string]int{"small": 500, "medium": 2000, "large": 10000}
	for _, name := range PresetNames() {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := cfg.Modules * cfg.ProcsPerModule; got != sizes[name] {
			t.Errorf("preset %s: %d procedures, want %d", name, got, sizes[name])
		}
		if cfg.Seed == 0 {
			t.Errorf("preset %s: no explicit seed", name)
		}
	}
	if _, err := Preset("gigantic"); err == nil {
		t.Error("unknown preset did not error")
	}
}
