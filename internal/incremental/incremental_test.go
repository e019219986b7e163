package incremental

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ipra/internal/core"
	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/summary"
)

// The store-level tests drive a Store through the same calls the build
// driver makes, with miniature deterministic phases over a toy source
// format: each word of source text reads "funcname" or "funcname>callee".
// The database is hand-built, so a test changes directives by changing
// the promote map without touching any source.

type toySource struct{ name, text string }

func twoModules() []toySource {
	return []toySource{
		{"main.mc", "main>helper main>leaf"},
		{"lib.mc", "helper>leaf leaf"},
	}
}

// toyPhase1 lowers one toy module.
func toyPhase1(src toySource) (*ir.Module, *summary.ModuleSummary) {
	m := &ir.Module{Name: src.name}
	ms := &summary.ModuleSummary{Module: src.name}
	for _, word := range strings.Fields(src.text) {
		fn, callee, _ := strings.Cut(word, ">")
		f := &ir.Func{Name: fn, Module: src.name, Blocks: []*ir.Block{{}}}
		if callee != "" {
			f.Blocks[0].Instrs = append(f.Blocks[0].Instrs, ir.Instr{Op: ir.Call, Callee: callee})
		}
		m.Funcs = append(m.Funcs, f)
		ms.Procs = append(ms.Procs, summary.ProcRecord{Name: fn, Module: src.name})
	}
	return m, ms
}

// toyDB hand-builds the program database: standard linkage everywhere,
// except that promote[p] = r promotes global g into register r in p.
func toyDB(sums []*summary.ModuleSummary, promote map[string]uint8, eligible []string) *pdb.Database {
	db := pdb.New()
	db.EligibleGlobals = eligible
	for _, s := range sums {
		for _, p := range s.Procs {
			d := pdb.Standard(p.Name)
			if r, ok := promote[p.Name]; ok {
				d.Caller = d.Caller.Remove(r)
				d.Callee = d.Callee.Remove(r)
				d.Promoted = []pdb.PromotedGlobal{{Name: "g", Reg: r}}
			}
			db.Procs[p.Name] = d
		}
	}
	return db
}

// toyPhase2 compiles one module; its "code" depends on the module's own
// directives, as real phase-2 output does.
func toyPhase2(m *ir.Module, db *pdb.Database) *parv.Object {
	o := &parv.Object{Module: m.Name}
	for _, f := range m.Funcs {
		var reg uint8
		if d := db.Lookup(f.Name); len(d.Promoted) > 0 {
			reg = d.Promoted[0].Reg
		}
		o.Funcs = append(o.Funcs, &parv.ObjFunc{Name: f.Name, Code: []parv.Instr{{Op: parv.LDI, Rd: reg}}})
	}
	return o
}

// toyOptions vary one toy build.
type toyOptions struct {
	fingerprint string // toolchain fingerprint; "" means "toy/v1"
	promote     map[string]uint8
	eligible    []string // the database's eligibility list
	explain     io.Writer
	// offered, when non-nil, runs an incremental analyzer: it records the
	// state the store offered and persists a recognizable blob.
	offered *[][]byte
}

// toyResult is what one toy build compiled and produced.
type toyResult struct {
	out            *Outcome
	phase1, phase2 []string // modules each phase compiled, in order
	modules        []*ir.Module
	sums           []*summary.ModuleSummary
	objs           []*parv.Object
}

// toyBuild runs one build against the store in dir, stage by stage as
// the build driver does.
func toyBuild(t *testing.T, dir string, srcs []toySource, o toyOptions) toyResult {
	t.Helper()
	ctx := context.Background()
	if o.fingerprint == "" {
		o.fingerprint = "toy/v1"
	}
	names := make([]string, len(srcs))
	for i, src := range srcs {
		names[i] = src.name
	}
	st, err := Open(dir, o.fingerprint, names)
	if err != nil {
		t.Fatal(err)
	}
	r := toyResult{
		modules: make([]*ir.Module, len(srcs)),
		sums:    make([]*summary.ModuleSummary, len(srcs)),
		objs:    make([]*parv.Object, len(srcs)),
	}
	for i, src := range srcs {
		m, ms, ok := st.ReusePhase1(ctx, i, []byte(src.text))
		if !ok {
			m, ms = toyPhase1(src)
			r.phase1 = append(r.phase1, src.name)
		}
		r.modules[i], r.sums[i] = m, ms
	}
	db := toyDB(r.sums, o.promote, o.eligible)
	if o.offered != nil {
		prev := st.AnalyzerState()
		*o.offered = append(*o.offered, prev)
		reuse := &core.ReuseStats{DirtyModules: len(st.Dirty()), WebsReused: len(db.Procs)}
		if prev == nil {
			reuse.Fallback = "no analyzer state"
		}
		st.SetAnalyzer(ctx, []byte("analyzer-state-blob"), reuse)
	}
	st.Diff(ctx, r.modules, db)
	for i, m := range r.modules {
		if r.objs[i] = st.ReuseObject(i); r.objs[i] == nil {
			r.objs[i] = toyPhase2(m, db)
			r.phase2 = append(r.phase2, m.Name)
		}
	}
	if err := st.Persist(r.modules, r.sums, r.objs); err != nil {
		t.Fatal(err)
	}
	r.out = st.Outcome(ctx, o.explain)
	return r
}

func readManifest(t *testing.T, dir string) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func writeManifest(t *testing.T, dir string, m manifest) {
	t.Helper()
	data, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDirectiveChangeRecompilesConsumers is the per-module phase-2
// decision over hand-built databases: a directive change recompiles
// exactly the modules that consult it.
func TestDirectiveChangeRecompilesConsumers(t *testing.T) {
	dir := t.TempDir()
	toyBuild(t, dir, twoModules(), toyOptions{})

	// Change leaf's directives without touching any source. Both modules
	// consult leaf (main calls it directly, lib defines it), so both must
	// re-run phase 2 — but phase 1 must not run at all.
	var buf bytes.Buffer
	r := toyBuild(t, dir, twoModules(), toyOptions{promote: map[string]uint8{"leaf": 17}, explain: &buf})
	if r.out.Phase1Rebuilds != 0 || len(r.phase1) != 0 {
		t.Errorf("phase-1 rebuilds = %d (%v), want 0", r.out.Phase1Rebuilds, r.phase1)
	}
	if r.out.Phase2Rebuilds != 2 || !reflect.DeepEqual(r.phase2, []string{"main.mc", "lib.mc"}) {
		t.Errorf("phase-2 rebuilds = %d (%v), want both modules\n%s", r.out.Phase2Rebuilds, r.phase2, &buf)
	}
	if !strings.Contains(buf.String(), "phase 2 recompiled (directives changed: leaf)") {
		t.Errorf("explain output missing directive rationale:\n%s", &buf)
	}

	// Now promote only main: lib.mc never consults main's directives, so
	// only main.mc re-runs phase 2.
	r = toyBuild(t, dir, twoModules(), toyOptions{promote: map[string]uint8{"leaf": 17, "main": 16}})
	if r.out.Phase2Rebuilds != 1 || !reflect.DeepEqual(r.phase2, []string{"main.mc"}) {
		t.Errorf("rebuilds = %d (%v), want only main.mc", r.out.Phase2Rebuilds, r.phase2)
	}
	if a := r.out.Actions[0]; a.Phase2Reason != "directives changed: main" {
		t.Errorf("main.mc phase-2 reason = %q", a.Phase2Reason)
	}

	// A changed eligibility list recompiles every module.
	r = toyBuild(t, dir, twoModules(), toyOptions{promote: map[string]uint8{"leaf": 17, "main": 16}, eligible: []string{"g"}})
	if !reflect.DeepEqual(r.phase2, []string{"main.mc", "lib.mc"}) {
		t.Errorf("eligibility change: phase 2 compiled %v, want both modules", r.phase2)
	}
	for _, a := range r.out.Actions {
		if a.Phase2Reason != "eligible globals changed" {
			t.Errorf("%s: phase-2 reason = %q, want an eligibility invalidation", a.Module, a.Phase2Reason)
		}
	}
}

func TestFingerprintMismatchDiscardsState(t *testing.T) {
	dir := t.TempDir()
	toyBuild(t, dir, twoModules(), toyOptions{})

	var buf bytes.Buffer
	r := toyBuild(t, dir, twoModules(), toyOptions{fingerprint: "toy/v2", explain: &buf})
	if !r.out.StateReset {
		t.Error("fingerprint mismatch must be reported as a state reset")
	}
	if r.out.Phase1Rebuilds != 2 || r.out.Phase2Rebuilds != 2 {
		t.Errorf("rebuilds = %d/%d, want full rebuild", r.out.Phase1Rebuilds, r.out.Phase2Rebuilds)
	}
	if !strings.Contains(buf.String(), "discarding build state: fingerprint mismatch") {
		t.Errorf("explain output missing reset notice:\n%s", &buf)
	}

	// The new state must be valid: an immediate rebuild is a no-op.
	r = toyBuild(t, dir, twoModules(), toyOptions{fingerprint: "toy/v2"})
	if r.out.Phase1Rebuilds != 0 || r.out.Phase2Rebuilds != 0 {
		t.Errorf("post-reset rebuild not clean: %d/%d", r.out.Phase1Rebuilds, r.out.Phase2Rebuilds)
	}
}

func TestCorruptManifestAndArtifacts(t *testing.T) {
	dir := t.TempDir()
	toyBuild(t, dir, twoModules(), toyOptions{})

	// Corrupt manifest: full rebuild, no error.
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := toyBuild(t, dir, twoModules(), toyOptions{})
	if !r.out.StateReset || r.out.Phase1Rebuilds != 2 {
		t.Errorf("corrupt manifest: reset=%v rebuilds=%d, want full reset", r.out.StateReset, r.out.Phase1Rebuilds)
	}

	// Corrupt one object file: that module silently recompiles.
	m := readManifest(t, dir)
	if err := os.WriteFile(filepath.Join(dir, m.Modules["lib.mc"].ObjectFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r = toyBuild(t, dir, twoModules(), toyOptions{explain: &buf})
	if r.out.Phase1Rebuilds != 0 || r.out.Phase2Rebuilds != 1 || !reflect.DeepEqual(r.phase2, []string{"lib.mc"}) {
		t.Errorf("corrupt object: rebuilds = %d/%d (%v), want 0/1", r.out.Phase1Rebuilds, r.out.Phase2Rebuilds, r.phase2)
	}
	if !strings.Contains(buf.String(), "lib.mc: phase 1 reused; phase 2 recompiled (stored object unreadable)") {
		t.Errorf("explain output:\n%s", &buf)
	}

	// Corrupt one phase-1 record: that module recompiles both phases.
	m = readManifest(t, dir)
	if err := os.WriteFile(filepath.Join(dir, m.Modules["main.mc"].Phase1File), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	r = toyBuild(t, dir, twoModules(), toyOptions{})
	if a := r.out.Actions[0]; !reflect.DeepEqual(r.phase1, []string{"main.mc"}) || a.Phase1Reason != "stored phase-1 record unreadable" || !a.Phase2Rebuilt {
		t.Errorf("corrupt phase-1 record: phase 1 compiled %v, action %+v", r.phase1, a)
	}

	// A manifest pointing outside the build directory must not be followed.
	m = readManifest(t, dir)
	m.Modules["lib.mc"].ObjectFile = "../escape.gob"
	writeManifest(t, dir, m)
	r = toyBuild(t, dir, twoModules(), toyOptions{})
	if r.out.Phase2Rebuilds != 1 || !reflect.DeepEqual(r.phase2, []string{"lib.mc"}) {
		t.Errorf("path-escaping manifest entry: rebuilds = %d (%v), want lib.mc recompiled", r.out.Phase2Rebuilds, r.phase2)
	}
}

// TestGobEraBuildDirTriggersFullRebuild simulates a build directory
// written by the gob-era store (format v1, .gob artifact suffixes): the
// fingerprint mismatch must force a full rebuild — never an attempt to
// parse gob bytes as wire — and the save that follows must prune the
// orphaned .gob artifacts.
func TestGobEraBuildDirTriggersFullRebuild(t *testing.T) {
	dir := t.TempDir()

	// A gob-era directory: v1 fingerprint, artifacts named *.gob with
	// contents the wire decoders would reject outright.
	gobArtifacts := []string{"p1-main_mc-deadbeef.gob", "obj-main_mc-deadbeef.gob", "p1-lib_mc-cafef00d.gob", "obj-lib_mc-cafef00d.gob"}
	writeManifest(t, dir, manifest{
		Fingerprint: "ipra-build/v1|toy/v1",
		Modules: map[string]*moduleState{
			"main.mc": {SourceHash: "stale", Phase1File: gobArtifacts[0], ObjectFile: gobArtifacts[1]},
			"lib.mc":  {SourceHash: "stale", Phase1File: gobArtifacts[2], ObjectFile: gobArtifacts[3]},
		},
	})
	for _, name := range gobArtifacts {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("\x13\xff\x81gob-era bytes"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	r := toyBuild(t, dir, twoModules(), toyOptions{explain: &buf})
	if !r.out.StateReset {
		t.Error("gob-era build dir must be reported as a state reset")
	}
	if r.out.Phase1Rebuilds != 2 || r.out.Phase2Rebuilds != 2 {
		t.Errorf("rebuilds = %d/%d, want full rebuild", r.out.Phase1Rebuilds, r.out.Phase2Rebuilds)
	}
	if !strings.Contains(buf.String(), "fingerprint mismatch") {
		t.Errorf("explain output missing fingerprint-mismatch notice:\n%s", &buf)
	}

	// The stale gob artifacts are unreferenced by the new manifest and
	// must have been pruned.
	for _, name := range gobArtifacts {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("stale gob-era artifact %s survived the format upgrade", name)
		}
	}

	// The upgraded state is valid: an immediate rebuild is a no-op.
	r = toyBuild(t, dir, twoModules(), toyOptions{})
	if r.out.Phase1Rebuilds != 0 || r.out.Phase2Rebuilds != 0 {
		t.Errorf("post-upgrade rebuild not clean: %d/%d", r.out.Phase1Rebuilds, r.out.Phase2Rebuilds)
	}
}

func TestModuleRemovalPrunesArtifacts(t *testing.T) {
	dir := t.TempDir()
	toyBuild(t, dir, twoModules(), toyOptions{})

	// Drop lib.mc; its artifacts must be pruned from the directory.
	toyBuild(t, dir, twoModules()[:1], toyOptions{})
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), "lib_mc") {
			t.Errorf("stale artifact %s survived module removal", e.Name())
		}
	}

	// Re-adding the module rebuilds it from source.
	r := toyBuild(t, dir, twoModules(), toyOptions{})
	if !reflect.DeepEqual(r.phase1, []string{"lib.mc"}) || r.out.Actions[1].Phase1Reason != "new module" {
		t.Errorf("re-added module: phase 1 compiled %v, action %+v; want lib.mc as a new module", r.phase1, r.out.Actions[1])
	}
}

func TestConsultedProcs(t *testing.T) {
	m := &ir.Module{
		Name: "m.mc",
		Funcs: []*ir.Func{
			{Name: "f", Blocks: []*ir.Block{{Instrs: []ir.Instr{
				{Op: ir.Call, Callee: "g"},
				{Op: ir.Call, IndirectCall: true, Callee: ""},
				{Op: ir.Call, Callee: "putint"},
			}}}},
			{Name: "h", Blocks: []*ir.Block{{}}},
		},
	}
	got := consultedProcs(m)
	want := []string{"f", "g", "h", "putint"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("consultedProcs = %v, want %v", got, want)
	}
}

func TestDiffDirectives(t *testing.T) {
	prev := map[string]string{"a": "1", "b": "2", "gone": "3"}
	cur := map[string]string{"a": "1", "b": "9", "new": "4"}
	if got := diffDirectives(prev, cur); !reflect.DeepEqual(got, []string{"b", "gone", "new"}) {
		t.Errorf("diff = %v", got)
	}
	if got := diffDirectives(prev, prev); got != nil {
		t.Errorf("self-diff = %v, want empty", got)
	}
}

// TestAnalyzerStatePersistence checks the analyzer.state round trip: the
// first build sees no state, repeat builds see exactly what the previous
// build persisted, and a manifest written without the state file (an older
// binary's build) invalidates the stored state instead of offering it.
func TestAnalyzerStatePersistence(t *testing.T) {
	dir := t.TempDir()
	var offered [][]byte

	var buf bytes.Buffer
	r := toyBuild(t, dir, twoModules(), toyOptions{offered: &offered, explain: &buf})
	if r.out.Analyzer == nil || r.out.Analyzer.Fallback == "" {
		t.Fatalf("first build: Analyzer = %+v, want a no-state fallback", r.out.Analyzer)
	}
	if len(offered) != 1 || offered[0] != nil {
		t.Fatalf("first build offered state %q, want none", offered)
	}
	if !strings.Contains(buf.String(), "analyzer: full analysis (no analyzer state)") {
		t.Errorf("explain output missing analyzer fallback line:\n%s", &buf)
	}

	buf.Reset()
	r = toyBuild(t, dir, twoModules(), toyOptions{offered: &offered, explain: &buf})
	if len(offered) != 2 || string(offered[1]) != "analyzer-state-blob" {
		t.Fatalf("repeat build offered state %q, want the persisted blob", offered[1])
	}
	if r.out.Analyzer == nil || r.out.Analyzer.Fallback != "" {
		t.Errorf("repeat build: Analyzer = %+v, want incremental", r.out.Analyzer)
	}
	if !strings.Contains(buf.String(), "webs reused") {
		t.Errorf("explain output missing analyzer reuse line:\n%s", &buf)
	}

	// An edited build still receives the state (it is bound to the manifest
	// the state was saved with; the dirty list carries the change).
	edited := twoModules()
	edited[1].text = "helper>leaf leaf extra"
	r = toyBuild(t, dir, edited, toyOptions{offered: &offered})
	if len(offered) != 3 || string(offered[2]) != "analyzer-state-blob" {
		t.Fatalf("edited build offered state %q, want the persisted blob", offered[2])
	}
	if r.out.Analyzer.DirtyModules != 1 {
		t.Errorf("edited build: DirtyModules = %d, want 1", r.out.Analyzer.DirtyModules)
	}

	// A build that persists no analyzer state — an older binary, or a
	// configuration without the analyzer — advances the manifest without
	// refreshing analyzer.state. The stored state now belongs to a
	// different manifest generation and must be dropped, not offered.
	older := twoModules()
	older[0].text = "main>helper main>leaf main-extra"
	toyBuild(t, dir, older, toyOptions{})
	r = toyBuild(t, dir, older, toyOptions{offered: &offered})
	if len(offered) != 4 || offered[3] != nil {
		t.Fatalf("stale analyzer state offered after an out-of-band manifest update: %q", offered[3])
	}
	if r.out.Analyzer == nil || r.out.Analyzer.Fallback == "" {
		t.Errorf("stale-state build: Analyzer = %+v, want fallback", r.out.Analyzer)
	}
}

// TestAnalyzerStateSkipsNoOpWrite ensures a no-edit rebuild does not
// rewrite analyzer.state when neither the sources nor the state moved.
func TestAnalyzerStateSkipsNoOpWrite(t *testing.T) {
	dir := t.TempDir()
	var offered [][]byte
	toyBuild(t, dir, twoModules(), toyOptions{offered: &offered})

	path := filepath.Join(dir, analyzerStateName)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Make any rewrite observable regardless of timestamp resolution.
	if err := os.Chtimes(path, before.ModTime().Add(-time.Hour), before.ModTime().Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	before, _ = os.Stat(path)

	toyBuild(t, dir, twoModules(), toyOptions{offered: &offered})
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Error("no-op rebuild rewrote analyzer.state")
	}
}
