package ipra

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"ipra/internal/benchprogs"
	"ipra/internal/parv"
	"ipra/internal/progen"
)

var updateStrategyGolden = flag.Bool("update-strategy", false, "rewrite the default-strategy goldens (testdata/strategy_goldens.json, testdata/simulator_goldens.json) from the current compiler and simulator")

const strategyGoldenPath = "testdata/strategy_goldens.json"

// goldenProgram is one pinned program with the instruction budget of its
// training run under the profiled presets.
type goldenProgram struct {
	sources     []Source
	trainInstrs uint64
}

// goldenPrograms returns the fixed program set the default-strategy golden
// hashes are pinned over: all seven benchmark analogs, a small generated
// program with recursion, statics, and indirect calls, and the generated
// program the cold-build benchmark compiles.
func goldenPrograms(t testing.TB) map[string]goldenProgram {
	t.Helper()
	out := make(map[string]goldenProgram)

	for _, b := range benchprogs.All() {
		files, err := b.Sources()
		if err != nil {
			t.Fatal(err)
		}
		var srcs []Source
		for _, f := range files {
			srcs = append(srcs, Source{Name: f.Name, Text: f.Text})
		}
		out[b.Name] = goldenProgram{srcs, b.MaxInstrs}
	}

	out["progen6x9"] = goldenProgram{progenSources(progen.Generate(progen.Config{
		Seed: 424242, Modules: 6, ProcsPerModule: 9, Globals: 48,
		SubsystemSize: 5, Recursion: true, IndirectCalls: true, Statics: true, LoopIters: 1,
	})), 5_000_000}
	out["progen24x40"] = goldenProgram{progenSources(progen.Generate(coldBuildShape)), 50_000_000}
	return out
}

// coldBuildShape is the generated program of the cold-build and edit-loop
// benchmark workloads: seed 2000, 24 modules × 40 procedures, 128 globals.
var coldBuildShape = progen.Config{
	Seed: 2000, Modules: 24, ProcsPerModule: 40, Globals: 128,
	SubsystemSize: 7, Recursion: true, IndirectCalls: true, Statics: true, LoopIters: 2,
}

// goldenBuild is what the golden tests keep of one (program, preset)
// build: the executable and, under a profiled preset, its training run.
type goldenBuild struct {
	exe   *parv.Executable
	train *RunResult
}

var goldenBuildsOnce struct {
	sync.Once
	builds map[string]goldenBuild // keyed program/preset
	err    error
}

// goldenBuilds builds every golden program under every preset once per
// test binary, so the executable-hash and the simulator goldens read the
// same builds.
func goldenBuilds(t testing.TB) map[string]goldenBuild {
	t.Helper()
	programs := goldenPrograms(t)
	g := &goldenBuildsOnce
	g.Do(func() {
		g.builds = make(map[string]goldenBuild)
		for prog, p := range programs {
			for _, name := range PresetNames() {
				cfg, err := PresetByName(name)
				if err != nil {
					g.err = err
					return
				}
				var opts []BuildOption
				if cfg.WantProfile {
					// The budget is part of the pinned configuration.
					opts = append(opts, WithProfile(p.trainInstrs))
				}
				res, err := Build(context.Background(), p.sources, cfg, opts...)
				if err != nil {
					g.err = fmt.Errorf("%s/%s: %w", prog, name, err)
					return
				}
				g.builds[prog+"/"+name] = goldenBuild{exe: res.Exe, train: res.Train}
			}
		}
	})
	if g.err != nil {
		t.Fatal(g.err)
	}
	return g.builds
}

// writeGoldenJSON writes a golden file with one sorted key per line.
func writeGoldenJSON[V any](t testing.TB, path string, entries map[string]V) {
	t.Helper()
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, k := range keys {
		v, err := json.Marshal(entries[k])
		if err != nil {
			t.Fatal(err)
		}
		comma := ","
		if i == len(keys)-1 {
			comma = ""
		}
		fmt.Fprintf(&buf, "  %q: %s%s\n", k, v, comma)
	}
	buf.WriteString("}\n")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d goldens to %s", len(entries), path)
}

// TestDefaultStrategyGoldens pins the default (paper priority-coloring)
// allocation strategy byte-for-byte: the executable hashes under every
// preset configuration must match the goldens captured from the
// pre-Strategy-refactor allocator. Any diff here means the refactor (or a
// later change) altered the default allocator's output; if that is
// intentional, refresh with `go test -run TestDefaultStrategyGoldens
// -update-strategy`.
func TestDefaultStrategyGoldens(t *testing.T) {
	got := make(map[string]string)
	for key, b := range goldenBuilds(t) {
		sum := sha256.Sum256(exeBytes(t, b.exe))
		got[key] = hex.EncodeToString(sum[:])
	}

	if *updateStrategyGolden {
		writeGoldenJSON(t, strategyGoldenPath, got)
		return
	}

	data, err := os.ReadFile(strategyGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-strategy)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, run produced %d", len(want), len(got))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: no measurement for golden entry", k)
		} else if g != w {
			t.Errorf("%s: executable hash %s differs from pre-refactor golden %s", k, g, w)
		}
	}
}
