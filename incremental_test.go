package ipra

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ipra/internal/benchprogs"
	"ipra/internal/cache"
	"ipra/internal/core"
	"ipra/internal/incremental"
	"ipra/internal/parv"
	"ipra/internal/telemetry"
)

// incrementalTestSources is a three-module program with two cross-module
// globals: acc is hot everywhere (always web-colored under the analyzer
// configurations), aux is cold in lib2.mc until the "coloring" edit below
// turns it hot there, which changes its web's promotion decisions.
func incrementalTestSources() []Source {
	return []Source{
		{Name: "main.mc", Text: []byte(`
extern int acc;
extern int aux;
int work(int n);
int mix(int n);
int main() {
	int i;
	for (i = 0; i < 40; i++) { acc += work(i); }
	for (i = 0; i < 8; i++) { acc += mix(i); }
	return (acc + aux) & 255;
}
`)},
		{Name: "lib1.mc", Text: []byte(`
int acc;
int aux;
int work(int n) {
	int j; int t;
	t = 0;
	for (j = 0; j < 5; j++) { t += n + j; acc += 1; }
	return t;
}
`)},
		{Name: "lib2.mc", Text: []byte(`
extern int acc;
extern int aux;
int mix(int n) {
	return acc + n;
}
`)},
	}
}

// editSource returns sources with one module's text substituted.
func editSource(t *testing.T, sources []Source, name, old, new string) []Source {
	t.Helper()
	out := append([]Source(nil), sources...)
	for i, s := range out {
		if s.Name != name {
			continue
		}
		if !strings.Contains(string(s.Text), old) {
			t.Fatalf("%s does not contain %q", name, old)
		}
		out[i] = Source{Name: name, Text: []byte(strings.Replace(string(s.Text), old, new, 1))}
		return out
	}
	t.Fatalf("no module %s", name)
	return nil
}

// canonicalExe is the canonical on-disk encoding — the byte-identity the
// incremental subsystem guarantees against a clean build.
func canonicalExe(t *testing.T, exe *parv.Executable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := parv.EncodeExecutable(&buf, exe); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const incrTestMaxInstrs = 20_000_000

// compileBoth produces the clean-build reference and the incremental build
// of the same sources under one configuration, including the profile-
// guided two-pass flow for configurations B and F.
func compileBoth(t *testing.T, sources []Source, cfg Config, buildDir string, explain *bytes.Buffer) (clean, incr *Program, out *incremental.Outcome) {
	t.Helper()
	ctx := context.Background()
	var common []BuildOption
	if cfg.WantProfile {
		common = append(common, WithProfile(incrTestMaxInstrs))
	}
	cleanRes, err := Build(ctx, sources, cfg, common...)
	if err != nil {
		t.Fatalf("%s clean: %v", cfg.Name, err)
	}
	iopts := append([]BuildOption{WithBuildDir(buildDir)}, common...)
	if explain != nil {
		iopts = append(iopts, WithStderr(explain))
	}
	incrRes, err := Build(ctx, sources, cfg, iopts...)
	if err != nil {
		t.Fatalf("%s incremental: %v", cfg.Name, err)
	}
	return cleanRes.Program, incrRes.Program, incrRes.Incremental
}

// assertIdentical checks the load-bearing invariant: executable bytes and
// run report of the incremental build equal the clean build's.
func assertIdentical(t *testing.T, label string, clean, incr *Program) {
	t.Helper()
	if !bytes.Equal(canonicalExe(t, clean.Exe), canonicalExe(t, incr.Exe)) {
		t.Errorf("%s: incremental executable differs from clean build", label)
		return
	}
	if clean.DB.Hash() != incr.DB.Hash() {
		t.Errorf("%s: incremental program database differs from clean build", label)
	}
	cleanRun, err := clean.Run(incrTestMaxInstrs, false)
	if err != nil {
		t.Fatalf("%s: clean run: %v", label, err)
	}
	incrRun, err := incr.Run(incrTestMaxInstrs, false)
	if err != nil {
		t.Fatalf("%s: incremental run: %v", label, err)
	}
	if !reflect.DeepEqual(cleanRun, incrRun) {
		t.Errorf("%s: run report differs:\nclean: %+v\nincr:  %+v", label, cleanRun, incrRun)
	}
}

// TestIncrementalMatchesCleanAcrossEdits is the acceptance-criteria
// differential: for the baseline and every Table 4 configuration, an
// incremental rebuild must produce a byte-identical executable and run
// report to a clean build after (a) no edit, (b) a body-only edit that
// changes no directives, and (c) an edit that changes a global's web
// coloring — with case (b) phase-2-recompiling exactly the edited module.
func TestIncrementalMatchesCleanAcrossEdits(t *testing.T) {
	for _, cfg := range determinismConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			ResetPhase1Cache()
			dir := t.TempDir()
			sources := incrementalTestSources()

			// ---- (clean start) First incremental build vs clean build.
			clean, incr, out := compileBoth(t, sources, cfg, dir, nil)
			assertIdentical(t, cfg.Name+"/initial", clean, incr)
			if out.Phase1Rebuilds != len(sources) || out.Phase2Rebuilds != len(sources) {
				t.Errorf("initial build: rebuilds = %d/%d, want all", out.Phase1Rebuilds, out.Phase2Rebuilds)
			}

			// ---- (a) No edit: nothing rebuilds, database identical.
			prevDB := incr.DB.Hash()
			clean, incr, out = compileBoth(t, sources, cfg, dir, nil)
			assertIdentical(t, cfg.Name+"/no-op", clean, incr)
			if out.Phase1Rebuilds != 0 || out.Phase2Rebuilds != 0 {
				for _, a := range out.Actions {
					t.Logf("action: %+v", a)
				}
				t.Errorf("no-op rebuild: rebuilds = %d/%d, want 0/0", out.Phase1Rebuilds, out.Phase2Rebuilds)
			}
			if incr.DB.Hash() != prevDB {
				t.Error("no-op rebuild computed a different program database")
			}

			// ---- (b) Body-only edit: a changed loop bound alters code but
			// no summary record (frequency weights depend on loop depth,
			// not trip count), so no directive changes: exactly the edited
			// module re-runs phase 2.
			edited := editSource(t, sources, "lib1.mc", "j < 5", "j < 6")
			var explain bytes.Buffer
			clean, incr, out = compileBoth(t, edited, cfg, dir, &explain)
			assertIdentical(t, cfg.Name+"/body-edit", clean, incr)
			if incr.DB.Hash() != prevDB {
				t.Fatalf("body-only edit changed the program database; test premise broken:\n%s", &explain)
			}
			if out.Phase1Rebuilds != 1 || out.Phase2Rebuilds != 1 ||
				!out.Actions[1].Phase2Rebuilt || out.Actions[0].Phase2Rebuilt || out.Actions[2].Phase2Rebuilt {
				t.Errorf("body edit: want exactly lib1.mc rebuilt, got:\n%s", &explain)
			}
			if !strings.Contains(explain.String(), "lib1.mc: phase 1 recompiled (source changed); phase 2 recompiled (source changed)") {
				t.Errorf("explain output missing body-edit rationale:\n%s", &explain)
			}

			// ---- (c) Web-coloring edit: lib2.mc gains its first (and hot)
			// references to aux, so aux's web grows to cover mix and the
			// coloring decisions recorded in the directives change. Modules
			// that consult the affected directives re-run phase 2 even
			// though their sources are untouched.
			colored := editSource(t, edited, "lib2.mc", "return acc + n;",
				"int j;\n\tfor (j = 0; j < 30; j++) { aux += j; }\n\treturn acc + aux + n;")
			explain.Reset()
			clean, incr, out = compileBoth(t, colored, cfg, dir, &explain)
			assertIdentical(t, cfg.Name+"/coloring-edit", clean, incr)
			// The cross-module premise assertions need promotion enabled:
			// under PromoteNone there is no web coloring to change.
			if cfg.UseAnalyzer && cfg.Analyzer.Promotion != core.PromoteNone {
				if incr.DB.Hash() == prevDB {
					t.Fatal("coloring edit did not change the program database; test premise broken")
				}
				// main.mc's source is untouched; its phase 2 must have been
				// invalidated purely by the directive diff.
				a := out.Actions[0]
				if a.Phase1Rebuilt {
					t.Error("coloring edit must not re-run phase 1 of main.mc")
				}
				if !a.Phase2Rebuilt || !strings.Contains(a.Phase2Reason, "directives changed") {
					t.Errorf("main.mc phase 2: rebuilt=%v reason=%q, want directive-diff invalidation\n%s",
						a.Phase2Rebuilt, a.Phase2Reason, &explain)
				}
			}
		})
	}
}

// TestIncrementalConfigSwitchSharesPhase1 switches configurations over one
// build directory: phase-1 state is configuration-independent, so only
// phase 2 re-runs, driven entirely by the directive diff.
func TestIncrementalConfigSwitchSharesPhase1(t *testing.T) {
	ResetPhase1Cache()
	dir := t.TempDir()
	sources := incrementalTestSources()
	ctx := context.Background()
	if _, err := Build(ctx, sources, MustPreset("L2"), WithBuildDir(dir)); err != nil {
		t.Fatal(err)
	}
	clean, err := Build(ctx, sources, MustPreset("C"))
	if err != nil {
		t.Fatal(err)
	}
	incr, err := Build(ctx, sources, MustPreset("C"), WithBuildDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if incr.Incremental.Phase1Rebuilds != 0 {
		t.Errorf("config switch re-ran phase 1 (%d modules)", incr.Incremental.Phase1Rebuilds)
	}
	if !bytes.Equal(canonicalExe(t, clean.Exe), canonicalExe(t, incr.Exe)) {
		t.Error("config-switch incremental build differs from clean config C build")
	}
}

// TestIncrementalStateDirIsolation makes sure two programs can't share a
// build directory by accident without corruption: the second program sees
// hash misses, rebuilds everything, and still links correctly.
func TestIncrementalStateDirIsolation(t *testing.T) {
	ResetPhase1Cache()
	dir := t.TempDir()
	sources := incrementalTestSources()
	ctx := context.Background()
	if _, err := Build(ctx, sources, MustPreset("L2"), WithBuildDir(dir)); err != nil {
		t.Fatal(err)
	}
	other := []Source{
		{Name: "solo.mc", Text: []byte("int main() { return 7; }")},
	}
	p, err := Build(ctx, other, MustPreset("L2"), WithBuildDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if out := p.Incremental; out.Phase1Rebuilds != 1 || out.Phase2Rebuilds != 1 {
		t.Errorf("rebuilds = %d/%d, want 1/1", out.Phase1Rebuilds, out.Phase2Rebuilds)
	}
	res, err := p.Run(1000, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != 7 {
		t.Errorf("exit = %d, want 7", res.Exit)
	}
}

// TestIncrementalBenchmarkSuite compiles a real Table 3 benchmark through
// the incremental path and checks identity with the clean build, then a
// whitespace-only touch of one module: the touched module re-runs phase 1,
// its record comes out byte-equal to the stored one, so its phase 2 is
// reused, and the executable bytes stay identical (the same check the CI
// smoke job performs through the mcc CLI).
func TestIncrementalBenchmarkSuite(t *testing.T) {
	ResetPhase1Cache()
	bm, err := benchprogs.ByName("dhrystone")
	if err != nil {
		t.Fatal(err)
	}
	sources := benchSources(t, bm)
	dir := t.TempDir()
	cfg := MustPreset("C")
	ctx := context.Background()

	clean, err := Build(ctx, sources, cfg)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := Build(ctx, sources, cfg, WithBuildDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonicalExe(t, clean.Exe), canonicalExe(t, incr.Exe)) {
		t.Fatal("incremental dhrystone differs from clean build")
	}

	touched := append([]Source(nil), sources...)
	touched[1] = Source{Name: touched[1].Name, Text: append([]byte(nil), touched[1].Text...)}
	touched[1].Text = append(touched[1].Text, '\n')
	incr2 := tracedBuild(t, touched, cfg, WithBuildDir(dir))
	if out := incr2.Incremental; out.Phase1Rebuilds != 1 || out.Phase1Unchanged != 1 || out.Phase2Rebuilds != 0 {
		t.Errorf("touch rebuild: %d/%d with %d phase-1 records unchanged, want 1/0 with 1",
			out.Phase1Rebuilds, out.Phase2Rebuilds, out.Phase1Unchanged)
	}
	if got := incr2.Report.Counters["incremental.phase1_unchanged"]; got != 1 {
		t.Errorf("incremental.phase1_unchanged = %d, want 1", got)
	}
	if ev := incr2.Report.Find("phase1-unchanged"); ev == nil || ev.Attrs["module"] != touched[1].Name {
		t.Errorf("trace has no phase1-unchanged event for %s: %+v", touched[1].Name, ev)
	}
	if !bytes.Equal(canonicalExe(t, clean.Exe), canonicalExe(t, incr2.Exe)) {
		t.Error("whitespace touch changed the executable bytes")
	}
}

// twoModuleSources is a small program whose modules consult each other's
// directives: main.mc calls into lib.mc, which calls within itself.
func twoModuleSources() []Source {
	return []Source{
		{Name: "main.mc", Text: []byte(`
int helper(int x);
int leaf(int x);
int main() { return helper(1) + leaf(2); }
`)},
		{Name: "lib.mc", Text: []byte(`
int leaf(int x) { return x + 1; }
int helper(int x) { return leaf(x) * 2; }
`)},
	}
}

// tracedBuild runs Build under a fresh tracer.
func tracedBuild(t *testing.T, sources []Source, cfg Config, opts ...BuildOption) *BuildResult {
	t.Helper()
	res, err := Build(context.Background(), sources, cfg, append(opts, WithTelemetry(telemetry.New()))...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// compiledModules lists, sorted, the modules a traced build ran through
// the given compiler phase ("phase1" or "phase2"): every "module" span
// under that phase's span.
func compiledModules(rep *telemetry.Report, phase string) []string {
	var out []string
	var walk func(ns []*telemetry.ReportSpan, inPhase bool)
	walk = func(ns []*telemetry.ReportSpan, inPhase bool) {
		for _, n := range ns {
			if inPhase && n.Name == "module" {
				out = append(out, fmt.Sprint(n.Attrs["module"]))
				continue
			}
			walk(n.Children, inPhase || n.Name == phase)
		}
	}
	walk(rep.Spans, false)
	sort.Strings(out)
	return out
}

// spanNames is the set of (non-instant) span names in a report.
func spanNames(rep *telemetry.Report) map[string]bool {
	names := make(map[string]bool)
	var walk func(ns []*telemetry.ReportSpan)
	walk = func(ns []*telemetry.ReportSpan) {
		for _, n := range ns {
			if !n.Instant {
				names[n.Name] = true
			}
			walk(n.Children)
		}
	}
	walk(rep.Spans)
	return names
}

// TestIncrementalCleanThenNoOpRebuild checks the no-edit rebuild: neither
// compiler phase runs, the explanation says so module by module, and
// every artifact equals the first build's.
func TestIncrementalCleanThenNoOpRebuild(t *testing.T) {
	ResetPhase1Cache()
	dir := t.TempDir()
	cfg := MustPreset("C")
	clean := tracedBuild(t, twoModuleSources(), cfg, WithBuildDir(dir))
	if out := clean.Incremental; out.Phase1Rebuilds != 2 || out.Phase2Rebuilds != 2 || out.StateReset {
		t.Fatalf("clean build: rebuilds = %d/%d, reset = %v; want 2/2 and no reset", out.Phase1Rebuilds, out.Phase2Rebuilds, out.StateReset)
	}

	var buf bytes.Buffer
	noop := tracedBuild(t, twoModuleSources(), cfg, WithBuildDir(dir), WithStderr(&buf))
	out := noop.Incremental
	if out.Phase1Rebuilds != 0 || out.Phase2Rebuilds != 0 {
		t.Errorf("no-op rebuild: rebuilds = %d/%d, want 0/0\n%s", out.Phase1Rebuilds, out.Phase2Rebuilds, &buf)
	}
	for _, phase := range []string{"phase1", "phase2"} {
		if got := compiledModules(noop.Report, phase); len(got) != 0 {
			t.Errorf("no-op rebuild ran %s on %v", phase, got)
		}
	}
	if !reflect.DeepEqual(noop.Summaries, clean.Summaries) || !reflect.DeepEqual(noop.Objects, clean.Objects) {
		t.Error("no-op rebuild artifacts differ from the clean build")
	}
	// A no-op rebuild decodes no IR: the stored records serve their
	// summaries alone, and each is the clean build's record.
	for i, m := range noop.Modules {
		if m != nil {
			t.Errorf("no-op rebuild decoded the IR of %s", m.Name)
		}
		name := clean.Modules[i].Name
		stored, err := filepath.Glob(filepath.Join(dir, "p1-"+strings.ReplaceAll(name, ".", "_")+"-*.wire"))
		if err != nil || len(stored) != 1 {
			t.Fatalf("%s: stored records %v (%v), want one", name, stored, err)
		}
		data, err := os.ReadFile(stored[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, cache.EncodeEntry(clean.Modules[i], clean.Summaries[i])) {
			t.Errorf("%s: stored phase-1 record differs from the clean build's", name)
		}
	}
	if !bytes.Equal(canonicalExe(t, noop.Exe), canonicalExe(t, clean.Exe)) {
		t.Error("no-op rebuild changed the executable")
	}
	if noop.DB.Hash() != clean.DB.Hash() {
		t.Error("no-op rebuild computed a different program database")
	}
	want := "incremental: main.mc: phase 1 reused; phase 2 reused\n" +
		"incremental: lib.mc: phase 1 reused; phase 2 reused\n" +
		"incremental: 0/2 phase-1 recompiles, 0/2 phase-2 recompiles\n"
	if buf.String() != want {
		t.Errorf("explain output:\n%q\nwant:\n%q", buf.String(), want)
	}
	// The analyzer re-ran whole and left nothing in the build directory.
	if states, _ := filepath.Glob(filepath.Join(dir, "analyzer*")); len(states) != 0 {
		t.Errorf("build directory holds analyzer state %v", states)
	}
}

// TestIncrementalSourceEditRebuildsOnlyEditedModule edits one module's
// body: only that module runs either compiler phase, and the result equals
// a store-less build of the edited program.
func TestIncrementalSourceEditRebuildsOnlyEditedModule(t *testing.T) {
	ResetPhase1Cache()
	dir := t.TempDir()
	cfg := MustPreset("C")
	tracedBuild(t, twoModuleSources(), cfg, WithBuildDir(dir))

	edited := editSource(t, twoModuleSources(), "lib.mc", "x + 1", "x + 3")
	var buf bytes.Buffer
	res := tracedBuild(t, edited, cfg, WithBuildDir(dir), WithStderr(&buf))
	if out := res.Incremental; out.Phase1Rebuilds != 1 || out.Phase2Rebuilds != 1 {
		t.Fatalf("rebuilds = %d/%d, want 1/1\n%s", out.Phase1Rebuilds, out.Phase2Rebuilds, &buf)
	}
	for _, phase := range []string{"phase1", "phase2"} {
		if got := compiledModules(res.Report, phase); !reflect.DeepEqual(got, []string{"lib.mc"}) {
			t.Errorf("%s compiled %v, want only lib.mc", phase, got)
		}
	}
	if !strings.Contains(buf.String(), "lib.mc: phase 1 recompiled (source changed); phase 2 recompiled (source changed)") {
		t.Errorf("explain output missing edit rationale:\n%s", &buf)
	}
	if !strings.Contains(buf.String(), "main.mc: phase 1 reused; phase 2 reused") {
		t.Errorf("explain output missing reuse line:\n%s", &buf)
	}
	clean, err := Build(context.Background(), edited, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonicalExe(t, res.Exe), canonicalExe(t, clean.Exe)) {
		t.Error("edited incremental build differs from a store-less build")
	}
}

// TestIncrementalSpanNamesMatchStorelessBuild pins the one-driver span
// tree: a first build into an empty build directory emits exactly the
// span names of a store-less build, plus persist. The phase-1 cache is off
// so both builds run the front end.
func TestIncrementalSpanNamesMatchStorelessBuild(t *testing.T) {
	for _, name := range []string{"L2", "C", "F"} {
		cfg := MustPreset(name)
		cfg.DisableCache = true
		var opts []BuildOption
		if cfg.WantProfile {
			opts = append(opts, WithProfile(incrTestMaxInstrs))
		}
		storeless := tracedBuild(t, twoModuleSources(), cfg, opts...)
		stored := tracedBuild(t, twoModuleSources(), cfg, append(opts, WithBuildDir(t.TempDir()))...)
		want, got := spanNames(storeless.Report), spanNames(stored.Report)
		if !got["persist"] {
			t.Errorf("%s: build-dir build has no persist span", name)
		}
		delete(got, "persist")
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: span names differ:\nstore-less: %v\nbuild dir:  %v", name, want, got)
		}
	}
}

// TestIncrementalStorelessBuildPersistsNothing checks a build without a
// build directory does no persistence work: no persist span, no
// invalidation events, no incremental counters, and no rebuild record.
func TestIncrementalStorelessBuildPersistsNothing(t *testing.T) {
	for _, name := range []string{"L2", "C"} {
		res := tracedBuild(t, twoModuleSources(), MustPreset(name))
		if res.Incremental != nil {
			t.Errorf("%s: store-less build has an Incremental outcome", name)
		}
		for _, span := range []string{"persist", "invalidate-phase1", "invalidate-phase2"} {
			if res.Report.Find(span) != nil {
				t.Errorf("%s: store-less build emitted %q", name, span)
			}
		}
		for c := range res.Report.Counters {
			if strings.HasPrefix(c, "incremental.") {
				t.Errorf("%s: store-less build counted %s", name, c)
			}
		}
	}
}

// TestIncrementalFlippedRecordByteRebuilds flips one byte in the middle of
// dhrystone's main-module phase-1 record, then rebuilds under another
// configuration (C → D), so phase 2 re-runs over the record's IR. The
// record no longer matches its name: the build recompiles the module
// (stored phase-1 record unreadable) and links the executable a clean D
// build links, where compiling the decoded record could panic or produce
// other code.
func TestIncrementalFlippedRecordByteRebuilds(t *testing.T) {
	b, err := benchprogs.ByName("dhrystone")
	if err != nil {
		t.Fatal(err)
	}
	srcs := benchSources(t, b)
	ctx := context.Background()
	clean, err := Build(ctx, srcs, MustPreset("D"))
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.4, 0.5, 0.67, 0.75} {
		ResetPhase1Cache()
		dir := t.TempDir()
		if _, err := Build(ctx, srcs, MustPreset("C"), WithBuildDir(dir)); err != nil {
			t.Fatal(err)
		}
		records, err := filepath.Glob(filepath.Join(dir, "p1-dhry_main_mc-*.wire"))
		if err != nil || len(records) != 1 {
			t.Fatalf("main-module records %v (%v), want one", records, err)
		}
		data, err := os.ReadFile(records[0])
		if err != nil {
			t.Fatal(err)
		}
		at := int(frac * float64(len(data)))
		data[at]++
		if err := os.WriteFile(records[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res, err := Build(ctx, srcs, MustPreset("D"), WithBuildDir(dir), WithStderr(&buf))
		if err != nil {
			t.Fatalf("byte %d of %d: %v", at, len(data), err)
		}
		if !strings.Contains(buf.String(), "dhry_main.mc: phase 1 recompiled (stored phase-1 record unreadable)") {
			t.Errorf("byte %d of %d: explain output:\n%s", at, len(data), &buf)
		}
		if !bytes.Equal(canonicalExe(t, res.Exe), canonicalExe(t, clean.Exe)) {
			t.Errorf("byte %d of %d: the rebuild links another executable than a clean D build", at, len(data))
		}
	}
}
