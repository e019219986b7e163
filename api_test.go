package ipra

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"ipra/internal/core"
)

// TestPresetRegistry pins the Presets registry: names in Table 4 order,
// analyzer wiring per column, and the default strategy on every preset.
func TestPresetRegistry(t *testing.T) {
	wantNames := []string{"L2", "A", "B", "C", "D", "E", "F"}
	if got := PresetNames(); !reflect.DeepEqual(got, wantNames) {
		t.Errorf("PresetNames() = %v, want %v", got, wantNames)
	}

	presets := Presets()
	if len(presets) != len(wantNames) {
		t.Errorf("Presets() has %d entries, want %d", len(presets), len(wantNames))
	}
	for _, name := range wantNames {
		reg, ok := presets[name]
		if !ok {
			t.Errorf("Presets() is missing %q", name)
			continue
		}
		if reg.Name != name {
			t.Errorf("Presets()[%q].Name = %q", name, reg.Name)
		}
		if reg.UseAnalyzer != (name != "L2") {
			t.Errorf("Presets()[%q].UseAnalyzer = %t", name, reg.UseAnalyzer)
		}
		if reg.WantProfile != (name == "B" || name == "F") {
			t.Errorf("Presets()[%q].WantProfile = %t", name, reg.WantProfile)
		}
		if reg.Strategy != DefaultStrategy {
			t.Errorf("Presets()[%q].Strategy = %q, want %q", name, reg.Strategy, DefaultStrategy)
		}
		if !reflect.DeepEqual(reg, MustPreset(name)) {
			t.Errorf("Presets()[%q] differs from MustPreset(%q)", name, name)
		}
	}

	// Configs is the sweep: registry order minus the baseline.
	sweep := Configs()
	if len(sweep) != 6 {
		t.Fatalf("Configs() has %d entries, want 6", len(sweep))
	}
	for i, c := range sweep {
		if c.Name != wantNames[i+1] {
			t.Errorf("Configs()[%d].Name = %q, want %q", i, c.Name, wantNames[i+1])
		}
	}
}

func TestPresetByName(t *testing.T) {
	for _, name := range []string{"L2", "l2", "C", "c", "f"} {
		cfg, err := PresetByName(name)
		if err != nil {
			t.Errorf("PresetByName(%q): %v", name, err)
			continue
		}
		if !strings.EqualFold(cfg.Name, name) {
			t.Errorf("PresetByName(%q).Name = %q", name, cfg.Name)
		}
	}
	if _, err := PresetByName("Z"); err == nil {
		t.Error("PresetByName(\"Z\") should fail")
	}
	// Registry values are fresh copies: mutating one must not leak into
	// the next lookup.
	a, _ := PresetByName("C")
	a.Analyzer.Promotion = core.PromoteGreedy
	b, _ := PresetByName("C")
	if b.Analyzer.Promotion != core.PromoteColoring {
		t.Error("PresetByName returns shared Config values")
	}
}

func TestMustPreset(t *testing.T) {
	if got := MustPreset("c").Name; got != "C" {
		t.Errorf("MustPreset(\"c\").Name = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustPreset(\"Z\") should panic")
		}
	}()
	MustPreset("Z")
}

// TestStrategyAPI covers the strategy surface of the public package: the
// registered names, resolution, and WithStrategy derivation.
func TestStrategyAPI(t *testing.T) {
	names := StrategyNames()
	if len(names) != 2 || names[0] != DefaultStrategy {
		t.Fatalf("StrategyNames() = %v, want default-first 2 strategies", names)
	}
	for _, name := range names {
		canon, err := ResolveStrategy(strings.ToUpper(name))
		if err != nil || canon != name {
			t.Errorf("ResolveStrategy(%q) = %q, %v", strings.ToUpper(name), canon, err)
		}
	}
	if canon, err := ResolveStrategy(""); err != nil || canon != DefaultStrategy {
		t.Errorf("ResolveStrategy(\"\") = %q, %v", canon, err)
	}
	for _, bad := range []string{"nope", "spill-everywhere"} {
		if _, err := ResolveStrategy(bad); err == nil {
			t.Errorf("ResolveStrategy(%q) should fail", bad)
		}
	}

	cfg := MustPreset("C").WithStrategy("tiling")
	if cfg.Strategy != "tiling" || cfg.Name != "C" {
		t.Errorf("WithStrategy derivation = %+v", cfg)
	}
	if MustPreset("C").Strategy != DefaultStrategy {
		t.Error("WithStrategy mutated the registry copy")
	}

	// An unknown strategy surfaces as a Build error, not a panic.
	if _, err := Build(context.Background(), tracedProgram(), MustPreset("C").WithStrategy("nope")); err == nil {
		t.Error("Build with unknown strategy should fail")
	}
}

// TestBuildEntryPoints exercises the Build options that replaced the
// retired v1 wrappers (Compile, CompileProfiled, CompileIncremental):
// plain, profiled, and incremental builds must agree byte-for-byte.
func TestBuildEntryPoints(t *testing.T) {
	sources := tracedProgram()
	cfg := MustPreset("C")

	plain, err := Build(context.Background(), sources, cfg)
	if err != nil {
		t.Fatal(err)
	}

	pcfg := MustPreset("F")
	prof, err := Build(context.Background(), sources, pcfg, WithProfile(10_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if prof.Train == nil {
		t.Error("profiled Build recorded no training run")
	}

	dir := t.TempDir()
	incr, err := Build(context.Background(), sources, cfg, WithBuildDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if incr.Incremental == nil {
		t.Error("incremental Build recorded no outcome")
	}
	if !bytes.Equal(exeBytes(t, plain.Exe), exeBytes(t, incr.Exe)) {
		t.Error("incremental Build output differs from in-memory Build output")
	}
}

// TestBuildWithBuildDir covers the incremental option on the unified
// entry point: a second identical Build over the same directory reuses
// everything, and the outcome is recorded on the result.
func TestBuildWithBuildDir(t *testing.T) {
	sources := tracedProgram()
	cfg := MustPreset("C")
	dir := t.TempDir()

	clean, err := Build(context.Background(), sources, cfg, WithBuildDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if clean.Incremental == nil {
		t.Fatal("WithBuildDir build has no Incremental outcome")
	}
	if clean.Incremental.Phase1Rebuilds != len(sources) {
		t.Errorf("clean build phase-1 rebuilds = %d, want %d", clean.Incremental.Phase1Rebuilds, len(sources))
	}

	again, err := Build(context.Background(), sources, cfg, WithBuildDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if again.Incremental.Phase1Rebuilds != 0 || again.Incremental.Phase2Rebuilds != 0 {
		t.Errorf("no-op rebuild recompiled %d/%d modules, want 0/0",
			again.Incremental.Phase1Rebuilds, again.Incremental.Phase2Rebuilds)
	}
	if !bytes.Equal(exeBytes(t, clean.Exe), exeBytes(t, again.Exe)) {
		t.Error("incremental rebuild changed the executable")
	}
}

// TestBuildWithStderr routes the incremental explanations through the
// option.
func TestBuildWithStderr(t *testing.T) {
	var buf bytes.Buffer
	_, err := Build(context.Background(), tracedProgram(), MustPreset("C"),
		WithBuildDir(t.TempDir()), WithStderr(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("WithStderr received no explain output")
	}
}

// TestBuildRejectsDuplicateModuleNames checks both kinds of build reject
// two modules under one name, even when their symbols don't collide and
// the link alone would succeed.
func TestBuildRejectsDuplicateModuleNames(t *testing.T) {
	sources := []Source{
		{Name: "a.mc", Text: []byte("int main() { return 1; }")},
		{Name: "a.mc", Text: []byte("int f() { return 2; }")},
	}
	for _, opts := range [][]BuildOption{nil, {WithBuildDir(t.TempDir())}} {
		_, err := Build(context.Background(), sources, MustPreset("L2"), opts...)
		if err == nil || !strings.Contains(err.Error(), `duplicate module name "a.mc"`) {
			t.Errorf("Build with %d option(s): err = %v, want a duplicate-name error", len(opts), err)
		}
	}
}
