package incremental

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"ipra/internal/cache"
	"ipra/internal/core"
	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/regs"
	"ipra/internal/summary"
)

// The store-level tests drive a Store through the same calls the build
// driver makes, with miniature deterministic phases over a toy source
// format: each word of source text reads "funcname", "funcname>callee",
// or "@global" (a global declaration); the words that name one procedure
// make one procedure with each of their calls. The database is hand-built, so a
// test changes directives by changing the promote, clobber and eligible
// options without touching any source.

type toySource struct{ name, text string }

func twoModules() []toySource {
	return []toySource{
		{"main.mc", "main>helper main>leaf"},
		{"lib.mc", "helper>leaf leaf @g"},
	}
}

// toyPhase1 lowers one toy module. Its summary records the procedures,
// their direct calls and the declared globals, as real summaries do.
func toyPhase1(src toySource) (*ir.Module, *summary.ModuleSummary) {
	m := &ir.Module{Name: src.name}
	ms := &summary.ModuleSummary{Module: src.name}
	for _, word := range strings.Fields(src.text) {
		if g, ok := strings.CutPrefix(word, "@"); ok {
			m.Globals = append(m.Globals, &ir.Global{Name: g, Module: src.name, Size: 4, Defined: true, Scalar: true})
			ms.Globals = append(ms.Globals, summary.GlobalInfo{Name: g, Module: src.name, Size: 4, Defined: true, Scalar: true})
			continue
		}
		fn, callee, _ := strings.Cut(word, ">")
		i := slices.IndexFunc(m.Funcs, func(f *ir.Func) bool { return f.Name == fn })
		if i < 0 {
			i = len(m.Funcs)
			m.Funcs = append(m.Funcs, &ir.Func{Name: fn, Module: src.name, Blocks: []*ir.Block{{}}})
			ms.Procs = append(ms.Procs, summary.ProcRecord{Name: fn, Module: src.name})
		}
		if callee != "" {
			b := m.Funcs[i].Blocks[0]
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.Call, Callee: callee})
			ms.Procs[i].Calls = append(ms.Procs[i].Calls, summary.CallSite{Callee: callee, Freq: 1})
		}
	}
	return m, ms
}

// toyDB hand-builds the program database: standard linkage everywhere,
// except that promote[p] = r promotes global g into register r in p, and
// clobber[p] = c publishes c as p's clobber set.
func toyDB(sums []*summary.ModuleSummary, o toyOptions) *pdb.Database {
	db := pdb.New()
	db.EligibleGlobals = o.eligible
	for _, s := range sums {
		for _, p := range s.Procs {
			d := pdb.Standard(p.Name)
			if r, ok := o.promote[p.Name]; ok {
				d.Caller = d.Caller.Remove(r)
				d.Callee = d.Callee.Remove(r)
				d.Promoted = []pdb.PromotedGlobal{{Name: "g", Reg: r}}
			}
			if c, ok := o.clobber[p.Name]; ok {
				d.HasClobber, d.ClobberAtCalls = true, c
			}
			db.Procs[p.Name] = d
		}
	}
	return db
}

// toyPhase2 compiles one module; its "code" depends on the module's own
// directives, as real phase-2 output does. Like the build's phase 2 it
// takes each procedure keep holds from keep and compiles the rest; it
// returns the names of the procedures it compiled.
func toyPhase2(m *ir.Module, db *pdb.Database, keep []*parv.ObjFunc) (*parv.Object, []string) {
	o := &parv.Object{Module: m.Name}
	var compiled []string
	for j, f := range m.Funcs {
		if j < len(keep) && keep[j] != nil {
			o.Funcs = append(o.Funcs, keep[j])
			continue
		}
		compiled = append(compiled, f.Name)
		var reg uint8
		if d := db.Lookup(f.Name); len(d.Promoted) > 0 {
			reg = d.Promoted[0].Reg
		}
		o.Funcs = append(o.Funcs, &parv.ObjFunc{Name: f.Name, Code: []parv.Instr{{Op: parv.LDI, Rd: reg}}})
	}
	return o, compiled
}

// toyOptions vary one toy build.
type toyOptions struct {
	fingerprint string // toolchain fingerprint; "" means "toy/v1"
	promote     map[string]uint8
	clobber     map[string]regs.Set
	eligible    []string // the database's eligibility list
	explain     io.Writer
	// offered, when non-nil, runs an incremental analyzer: it records the
	// state the store offered and persists state, a recognizable blob
	// ("" means "analyzer-state-blob").
	offered *[][]byte
	state   string
}

// toyResult is what one toy build compiled and produced.
type toyResult struct {
	out            *Outcome
	phase1, phase2 []string     // modules each phase compiled, in order
	procs          []string     // procedures phase 2 compiled, in order
	dirty          []string     // the store's Dirty() after phase 1
	modules        []*ir.Module // nil where neither phase needed the IR
	sums           []*summary.ModuleSummary
	objs           []*parv.Object
}

// toyBuild runs one build against the store in dir, stage by stage as
// the build driver does.
func toyBuild(t testing.TB, dir string, srcs []toySource, o toyOptions) toyResult {
	t.Helper()
	r, err := toyBuildErr(t, dir, srcs, o)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// toyBuildErr is toyBuild returning Persist's error.
func toyBuildErr(t testing.TB, dir string, srcs []toySource, o toyOptions) (toyResult, error) {
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
		ms, ok := st.ReusePhase1(ctx, i, cache.SourceKey(src.name, []byte(src.text), o.fingerprint))
		if !ok {
			r.modules[i], ms = toyPhase1(src)
			r.phase1 = append(r.phase1, src.name)
			st.SetPhase1(ctx, i, cache.EncodeEntry(r.modules[i], ms))
		}
		r.sums[i] = ms
	}
	r.dirty = st.Dirty()
	db := toyDB(r.sums, o)
	if o.offered != nil {
		prev := st.AnalyzerState()
		*o.offered = append(*o.offered, prev)
		reuse := &core.ReuseStats{DirtyModules: len(st.Dirty()), WebsReused: len(db.Procs)}
		if prev == nil {
			reuse.Fallback = "no analyzer state"
		}
		if o.state == "" {
			o.state = "analyzer-state-blob"
		}
		st.SetAnalyzer(ctx, []byte(o.state), reuse)
	}
	st.Diff(ctx, r.sums, db)
	for i, src := range srcs {
		obj, keep := st.ReuseObject(i)
		if r.objs[i] = obj; obj != nil {
			continue
		}
		if r.modules[i] == nil {
			if r.modules[i], err = st.Module(i); err != nil {
				t.Fatal(err)
			}
		}
		var compiled []string
		r.objs[i], compiled = toyPhase2(r.modules[i], db, keep)
		r.phase2 = append(r.phase2, src.name)
		r.procs = append(r.procs, compiled...)
	}
	if err := st.Persist(r.objs); err != nil {
		return r, err
	}
	r.out = st.Outcome(ctx, o.explain)
	return r, nil
}

func readManifest(t testing.TB, dir string) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func readArtifact(t testing.TB, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeManifest(t testing.TB, dir string, m manifest) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, manifestName), encodeManifest(&m), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDirectiveChangeRecompilesConsumers is the per-module phase-2
// decision over hand-built databases: a directive change recompiles
// exactly the modules whose phase 2 reads it.
func TestDirectiveChangeRecompilesConsumers(t *testing.T) {
	dir := t.TempDir()
	toyBuild(t, dir, twoModules(), toyOptions{})

	// Change leaf's clobber set without touching any source. Both modules
	// call leaf (main directly, lib from helper), so both must re-run
	// phase 2 — but phase 1 must not run at all.
	clobber := map[string]regs.Set{"leaf": regs.Of(19)}
	var buf bytes.Buffer
	r := toyBuild(t, dir, twoModules(), toyOptions{clobber: clobber, explain: &buf})
	if r.out.Phase1Rebuilds != 0 || len(r.phase1) != 0 {
		t.Errorf("phase-1 rebuilds = %d (%v), want 0", r.out.Phase1Rebuilds, r.phase1)
	}
	if r.out.Phase2Rebuilds != 2 || !reflect.DeepEqual(r.phase2, []string{"main.mc", "lib.mc"}) {
		t.Errorf("phase-2 rebuilds = %d (%v), want both modules\n%s", r.out.Phase2Rebuilds, r.phase2, &buf)
	}
	if !strings.Contains(buf.String(), "phase 2 recompiled (directives changed: leaf)") {
		t.Errorf("explain output missing directive rationale:\n%s", &buf)
	}

	// Promote in leaf: only lib.mc, which defines leaf, reads its
	// promotions and register sets; main.mc reads only its clobber set.
	r = toyBuild(t, dir, twoModules(), toyOptions{clobber: clobber, promote: map[string]uint8{"leaf": 17}})
	if r.out.Phase2Rebuilds != 1 || !reflect.DeepEqual(r.phase2, []string{"lib.mc"}) {
		t.Errorf("rebuilds = %d (%v), want only lib.mc", r.out.Phase2Rebuilds, r.phase2)
	}
	if a := r.out.Actions[1]; a.Phase2Reason != "directives changed: leaf" {
		t.Errorf("lib.mc phase-2 reason = %q", a.Phase2Reason)
	}

	// Now promote in main: lib.mc never consults main's directives, so
	// only main.mc re-runs phase 2.
	promote := map[string]uint8{"leaf": 17, "main": 16}
	r = toyBuild(t, dir, twoModules(), toyOptions{clobber: clobber, promote: promote})
	if r.out.Phase2Rebuilds != 1 || !reflect.DeepEqual(r.phase2, []string{"main.mc"}) {
		t.Errorf("rebuilds = %d (%v), want only main.mc", r.out.Phase2Rebuilds, r.phase2)
	}
	if a := r.out.Actions[0]; a.Phase2Reason != "directives changed: main" {
		t.Errorf("main.mc phase-2 reason = %q", a.Phase2Reason)
	}

	// g's eligibility changes: only lib.mc declares g, so only lib.mc
	// re-runs phase 2.
	r = toyBuild(t, dir, twoModules(), toyOptions{clobber: clobber, promote: promote, eligible: []string{"g"}})
	if !reflect.DeepEqual(r.phase2, []string{"lib.mc"}) {
		t.Errorf("eligibility change: phase 2 compiled %v, want lib.mc", r.phase2)
	}
	if a := r.out.Actions[1]; a.Phase2Reason != "eligible globals changed" {
		t.Errorf("lib.mc phase-2 reason = %q, want an eligibility invalidation", a.Phase2Reason)
	}

	// The eligibility of a global neither module declares is read by
	// neither.
	r = toyBuild(t, dir, twoModules(), toyOptions{clobber: clobber, promote: promote, eligible: []string{"g", "other"}})
	if r.out.Phase2Rebuilds != 0 {
		t.Errorf("undeclared global's eligibility: phase 2 compiled %v, want nothing", r.phase2)
	}
}

// salvageModules is twoModules with a procedure in lib.mc that neither
// calls leaf nor is called by a procedure main.mc's key covers leaf for.
func salvageModules() []toySource {
	return []toySource{
		{"main.mc", "main>helper main>other"},
		{"lib.mc", "helper>leaf leaf other @g"},
	}
}

// TestKeyChangeRecompilesStaleProcedures is the per-procedure phase-2
// decision: a module whose phase-1 record and eligibility key are
// unchanged recompiles only the procedures whose own key or a direct
// callee's key moved, keeps the stored code of the others, counts both,
// and says so; an eligibility change still recompiles the whole module.
// Each build's objects equal a clean build's.
func TestKeyChangeRecompilesStaleProcedures(t *testing.T) {
	dir := t.TempDir()
	toyBuild(t, dir, salvageModules(), toyOptions{})
	clobber := map[string]regs.Set{"leaf": regs.Of(19)}
	for _, step := range []struct {
		what  string
		opts  toyOptions
		procs []string // the procedures lib.mc's phase 2 compiles
		line  string
	}{
		// helper calls leaf and lib.mc defines it; other reads neither,
		// and main.mc consults no key of leaf.
		{"leaf's clobber set", toyOptions{clobber: clobber}, []string{"helper", "leaf"},
			"lib.mc: phase 1 reused; phase 2 recompiled (directives changed: leaf), 2/3 procedures\n"},
		// main.mc reads only other's clobber set, which is unchanged.
		{"a promotion in other", toyOptions{clobber: clobber, promote: map[string]uint8{"other": 17}}, []string{"other"},
			"lib.mc: phase 1 reused; phase 2 recompiled (directives changed: other), 1/3 procedures\n"},
		{"g's eligibility", toyOptions{clobber: clobber, promote: map[string]uint8{"other": 17}, eligible: []string{"g"}},
			[]string{"helper", "leaf", "other"},
			"lib.mc: phase 1 reused; phase 2 recompiled (eligible globals changed)\n"},
	} {
		var buf bytes.Buffer
		o := step.opts
		o.explain = &buf
		r := toyBuild(t, dir, salvageModules(), o)
		if !reflect.DeepEqual(r.phase2, []string{"lib.mc"}) || !reflect.DeepEqual(r.procs, step.procs) {
			t.Errorf("%s: phase 2 compiled modules %v, procedures %v; want lib.mc, %v", step.what, r.phase2, r.procs, step.procs)
		}
		if !strings.Contains(buf.String(), step.line) {
			t.Errorf("%s: explain lacks %q:\n%s", step.what, step.line, &buf)
		}
		a := r.out.Actions[1]
		if a.Procs != 3 || a.ProcsRecompiled != len(step.procs) ||
			r.out.ProcsRecompiled != len(step.procs) || r.out.ProcsReused != 3-len(step.procs) {
			t.Errorf("%s: lib.mc recompiled %d/%d, build %d recompiled + %d reused; want %d/3",
				step.what, a.ProcsRecompiled, a.Procs, r.out.ProcsRecompiled, r.out.ProcsReused, len(step.procs))
		}
		clean := toyBuild(t, t.TempDir(), salvageModules(), step.opts)
		for i := range clean.objs {
			if !bytes.Equal(parv.EncodeObject(r.objs[i]), parv.EncodeObject(clean.objs[i])) {
				t.Errorf("%s: %s: object differs from a clean build's", step.what, clean.out.Actions[i].Module)
			}
		}
	}
}

// TestUnchangedPhase1RecordKeepsPhase2 is the phase-1 cut-off: a source
// edit whose phase-1 record encodes byte-equal to the stored one (here
// extra whitespace) re-runs phase 1 only. The module is not dirty for the
// analyzer, its phase 2 and stored record are reused, and the revert is
// the same.
func TestUnchangedPhase1RecordKeepsPhase2(t *testing.T) {
	dir := t.TempDir()
	var offered [][]byte
	toyBuild(t, dir, twoModules(), toyOptions{offered: &offered})
	p1 := filepath.Join(dir, readManifest(t, dir).Modules["lib.mc"].Phase1File)
	before, err := os.Stat(p1)
	if err != nil {
		t.Fatal(err)
	}
	old := before.ModTime().Add(-time.Hour)
	if err := os.Chtimes(p1, old, old); err != nil {
		t.Fatal(err)
	}

	touched := twoModules()
	touched[1].text = "helper>leaf   leaf\n@g"
	for _, srcs := range [][]toySource{touched, twoModules()} {
		var buf bytes.Buffer
		r := toyBuild(t, dir, srcs, toyOptions{offered: &offered, explain: &buf})
		if !reflect.DeepEqual(r.phase1, []string{"lib.mc"}) || r.out.Phase1Unchanged != 1 || r.out.Phase2Rebuilds != 0 {
			t.Errorf("phase 1 compiled %v (%d unchanged), phase-2 rebuilds %d; want lib.mc, 1, 0\n%s",
				r.phase1, r.out.Phase1Unchanged, r.out.Phase2Rebuilds, &buf)
		}
		if r.out.Analyzer.DirtyModules != 0 {
			t.Errorf("analyzer saw %d dirty modules, want 0", r.out.Analyzer.DirtyModules)
		}
		if !strings.Contains(buf.String(), "lib.mc: phase 1 recompiled (source changed), record unchanged; phase 2 reused") {
			t.Errorf("explain output missing the cut-off:\n%s", &buf)
		}
	}
	if after, err := os.Stat(p1); err != nil || !after.ModTime().Equal(old) {
		t.Errorf("an unchanged phase-1 record was rewritten (%v)", err)
	}
	if r := toyBuild(t, dir, twoModules(), toyOptions{}); r.out.Phase1Rebuilds != 0 || r.out.Phase2Rebuilds != 0 {
		t.Errorf("rebuild after the revert: %d/%d, want 0/0", r.out.Phase1Rebuilds, r.out.Phase2Rebuilds)
	}
}

// TestInterruptedPersistKeepsLiveState covers a build cut off inside
// Persist: it has written the edited module's new artifacts but not the
// manifest, so the live manifest still describes the build before. Re-run,
// the edited build must see lib.mc as edited (dirty, both phases re-run)
// and match a clean build; the previous sources must still build from the
// previous records and objects. The same holds when lib.mc's stored record
// file itself holds the edited record.
func TestInterruptedPersistKeepsLiveState(t *testing.T) {
	edited := twoModules()
	edited[1].text = "helper>leaf leaf extra @g"
	// wantSame compares the records the manifest in dir names, and the
	// objects of build got, with a clean build's.
	wantSame := func(what, dir string, got toyResult, srcs []toySource) {
		t.Helper()
		cleanDir := t.TempDir()
		want := toyBuild(t, cleanDir, srcs, toyOptions{})
		gotM, wantM := readManifest(t, dir), readManifest(t, cleanDir)
		for i, src := range srcs {
			if !bytes.Equal(readArtifact(t, dir, gotM.Modules[src.name].Phase1File), readArtifact(t, cleanDir, wantM.Modules[src.name].Phase1File)) {
				t.Errorf("%s: %s: phase-1 record differs from a clean build's", what, src.name)
			}
			if !bytes.Equal(parv.EncodeObject(got.objs[i]), parv.EncodeObject(want.objs[i])) {
				t.Errorf("%s: %s: object differs from a clean build's", what, src.name)
			}
		}
	}
	rerun := func(what, dir string) {
		t.Helper()
		r := toyBuild(t, dir, edited, toyOptions{})
		if !reflect.DeepEqual(r.dirty, []string{"lib.mc"}) || !reflect.DeepEqual(r.phase2, []string{"lib.mc"}) || r.out.Phase1Unchanged != 0 {
			t.Errorf("%s: dirty %v, phase 2 compiled %v, %d unchanged records; want lib.mc, lib.mc, 0",
				what, r.dirty, r.phase2, r.out.Phase1Unchanged)
		}
		wantSame(what, dir, r, edited)
	}

	// Persist cut off after its artifact writes: the edited build's
	// artifacts sit beside the live manifest's.
	interrupted := func() string {
		dir, cut := t.TempDir(), t.TempDir()
		toyBuild(t, dir, twoModules(), toyOptions{})
		toyBuild(t, cut, twoModules(), toyOptions{})
		toyBuild(t, cut, edited, toyOptions{})
		entries, err := os.ReadDir(cut)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if name := e.Name(); strings.HasPrefix(name, "p1-") || strings.HasPrefix(name, "obj-") {
				data, err := os.ReadFile(filepath.Join(cut, name))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		return dir
	}
	rerun("re-run", interrupted())
	dir := interrupted()
	r := toyBuild(t, dir, twoModules(), toyOptions{})
	if r.out.Phase1Rebuilds != 0 || r.out.Phase2Rebuilds != 0 {
		t.Errorf("previous sources: rebuilds %d/%d, want 0/0", r.out.Phase1Rebuilds, r.out.Phase2Rebuilds)
	}
	wantSame("previous sources", dir, r, twoModules())

	// lib.mc's stored record file holds the edited record; the manifest
	// still names the old one.
	dir = t.TempDir()
	toyBuild(t, dir, twoModules(), toyOptions{})
	rec := cache.EncodeEntry(toyPhase1(edited[1]))
	if err := os.WriteFile(filepath.Join(dir, readManifest(t, dir).Modules["lib.mc"].Phase1File), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	rerun("overwritten record", dir)
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
				{Op: ir.Call, Callee: "f"},
			}}}},
			{Name: "h", Blocks: []*ir.Block{{}}},
		},
	}
	got := pdb.Consulted(summary.SummarizeModule(m))
	want := map[string]pdb.Use{"f": pdb.UseOwn | pdb.UseCall, "g": pdb.UseCall, "h": pdb.UseOwn, "putint": pdb.UseCall}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Consulted = %v, want %v", got, want)
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

// TestAnalyzerStatePersistence checks the analyzer state round trip: the
// first build sees no state, repeat builds see exactly what the previous
// build persisted, and a build that runs no analyzer names no state, so
// the next analyzer run is offered none and the old artifact is pruned.
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
	artifact := readManifest(t, dir).Analyzer
	if !strings.HasPrefix(artifact, "analyzer-state-") || !strings.HasSuffix(artifact, ".wire") {
		t.Fatalf("manifest names analyzer state %q, want analyzer-state-<hash>.wire", artifact)
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

	// An edited build still receives the state (the manifest it is named
	// in holds the records it was computed from; the dirty list carries
	// the change).
	edited := twoModules()
	edited[1].text = "helper>leaf leaf extra"
	r = toyBuild(t, dir, edited, toyOptions{offered: &offered})
	if len(offered) != 3 || string(offered[2]) != "analyzer-state-blob" {
		t.Fatalf("edited build offered state %q, want the persisted blob", offered[2])
	}
	if r.out.Analyzer.DirtyModules != 1 {
		t.Errorf("edited build: DirtyModules = %d, want 1", r.out.Analyzer.DirtyModules)
	}

	// A build that runs no analyzer advances the manifest and names no
	// state. The stored state belongs to older records: it is pruned,
	// and the next analyzer run is offered nothing.
	older := twoModules()
	older[0].text = "main>helper main>leaf main-extra"
	toyBuild(t, dir, older, toyOptions{})
	if m := readManifest(t, dir); m.Analyzer != "" {
		t.Errorf("a build without an analyzer named state %q", m.Analyzer)
	}
	if _, err := os.Stat(filepath.Join(dir, artifact)); !os.IsNotExist(err) {
		t.Errorf("unnamed analyzer state %s survived (%v)", artifact, err)
	}
	r = toyBuild(t, dir, older, toyOptions{offered: &offered})
	if len(offered) != 4 || offered[3] != nil {
		t.Fatalf("stale analyzer state offered after a build without the analyzer: %q", offered[3])
	}
	if r.out.Analyzer == nil || r.out.Analyzer.Fallback == "" {
		t.Errorf("stale-state build: Analyzer = %+v, want fallback", r.out.Analyzer)
	}
}

// TestAnalyzerStateSkipsNoOpWrite ensures a no-edit rebuild does not
// rewrite the analyzer state when its bytes did not move.
func TestAnalyzerStateSkipsNoOpWrite(t *testing.T) {
	dir := t.TempDir()
	var offered [][]byte
	toyBuild(t, dir, twoModules(), toyOptions{offered: &offered})

	path := filepath.Join(dir, readManifest(t, dir).Analyzer)
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
		t.Error("no-op rebuild rewrote the analyzer state")
	}
}

// TestAnalyzerStateTamperedIsRewritten overwrites the named analyzer
// state with junk. The bytes do not match the name, so the store offers no
// state (the declared fallback), and the build rewrites the artifact even
// though its name is unchanged, so the next build is offered the real
// state again.
func TestAnalyzerStateTamperedIsRewritten(t *testing.T) {
	dir := t.TempDir()
	var offered [][]byte
	toyBuild(t, dir, twoModules(), toyOptions{offered: &offered})
	path := filepath.Join(dir, readManifest(t, dir).Analyzer)
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := toyBuild(t, dir, twoModules(), toyOptions{offered: &offered})
	if offered[1] != nil || r.out.Analyzer.Fallback != "no analyzer state" {
		t.Errorf("tampered build offered %q (fallback %q), want no state", offered[1], r.out.Analyzer.Fallback)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "analyzer-state-blob" {
		t.Errorf("tampered artifact holds %q after the build (%v), want it rewritten", data, err)
	}
	toyBuild(t, dir, twoModules(), toyOptions{offered: &offered})
	if string(offered[2]) != "analyzer-state-blob" {
		t.Errorf("build after the rewrite offered %q, want the persisted blob", offered[2])
	}
}

// TestAnalyzerStateSurvivesInterruptedPersist cuts a build off after it has
// written its artifacts, the new analyzer state among them, but before
// the manifest swap. The next build must be offered the previous state:
// the live manifest still names it, and it still holds its bytes.
func TestAnalyzerStateSurvivesInterruptedPersist(t *testing.T) {
	dir := t.TempDir()
	var offered [][]byte
	toyBuild(t, dir, twoModules(), toyOptions{offered: &offered, state: "state-before"})
	prev := readManifest(t, dir).Analyzer

	// A directory where the manifest's temporary file belongs makes the
	// swap fail after every artifact write.
	block := filepath.Join(dir, manifestName+".tmp")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	edited := twoModules()
	edited[1].text = "helper>leaf leaf extra @g"
	if _, err := toyBuildErr(t, dir, edited, toyOptions{offered: &offered, state: "state-cut"}); err == nil {
		t.Fatal("build with a blocked manifest swap succeeded")
	}
	cut := artifactFile("analyzer-state", "", []byte("state-cut"))
	if _, err := os.Stat(filepath.Join(dir, cut)); err != nil {
		t.Fatalf("the cut-off build did not write its analyzer state: %v", err)
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}

	toyBuild(t, dir, twoModules(), toyOptions{offered: &offered, state: "state-before"})
	if string(offered[2]) != "state-before" {
		t.Errorf("build after the cut-off was offered %q, want the previous state", offered[2])
	}
	if m := readManifest(t, dir); m.Analyzer != prev {
		t.Errorf("manifest names %q, want %q", m.Analyzer, prev)
	}
	if _, err := os.Stat(filepath.Join(dir, cut)); !os.IsNotExist(err) {
		t.Errorf("the cut-off build's analyzer state was not pruned (%v)", err)
	}
}

// TestAnalyzerStateParentFile opens a directory in the form older builds
// wrote: a manifest naming no analyzer state beside a headered
// analyzer.state file. It offers no state, which costs one full analysis
// and no module rebuilds, prunes the old file, and the next build is
// incremental.
func TestAnalyzerStateParentFile(t *testing.T) {
	dir := t.TempDir()
	var offered [][]byte
	toyBuild(t, dir, twoModules(), toyOptions{offered: &offered})
	m := readManifest(t, dir)
	if err := os.Remove(filepath.Join(dir, m.Analyzer)); err != nil {
		t.Fatal(err)
	}
	m.Analyzer = ""
	writeManifest(t, dir, m)
	old := filepath.Join(dir, "analyzer.state")
	if err := os.WriteFile(old, []byte("ipra-analyzer-store/v1\n0123456789abcdef01234567\nanalyzer-state-blob"), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	r := toyBuild(t, dir, twoModules(), toyOptions{offered: &offered, explain: &buf})
	if offered[1] != nil || r.out.Analyzer.Fallback == "" {
		t.Errorf("offered %q (fallback %q), want no state and a fallback", offered[1], r.out.Analyzer.Fallback)
	}
	if r.out.StateReset || r.out.Phase1Rebuilds != 0 || r.out.Phase2Rebuilds != 0 {
		t.Errorf("reset = %v, rebuilds = %d/%d; want no reset and 0/0\n%s",
			r.out.StateReset, r.out.Phase1Rebuilds, r.out.Phase2Rebuilds, &buf)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Errorf("analyzer.state survived (%v)", err)
	}
	r = toyBuild(t, dir, twoModules(), toyOptions{offered: &offered})
	if string(offered[2]) != "analyzer-state-blob" || r.out.Analyzer.Fallback != "" {
		t.Errorf("next build offered %q (fallback %q), want the persisted blob", offered[2], r.out.Analyzer.Fallback)
	}
}

// TestArtifactByteFlipsFallBack flips each byte of a stored phase-1
// record, object and analyzer state in turn. A flipped artifact no longer
// matches its name, so every flip is that artifact's declared fallback,
// the build's outputs equal a clean build's, and the rewrite restores the
// file's bytes.
func TestArtifactByteFlipsFallBack(t *testing.T) {
	dir := t.TempDir()
	var offered [][]byte
	clean := toyBuild(t, dir, twoModules(), toyOptions{offered: &offered})
	m := readManifest(t, dir)
	lib := m.Modules["lib.mc"]
	sameOutputs := func(what string, r toyResult) {
		t.Helper()
		if !reflect.DeepEqual(r.sums, clean.sums) {
			t.Errorf("%s: summaries differ from a clean build's", what)
		}
		for i := range clean.objs {
			if !bytes.Equal(parv.EncodeObject(r.objs[i]), parv.EncodeObject(clean.objs[i])) {
				t.Errorf("%s: %s: object differs from a clean build's", what, r.out.Actions[i].Module)
			}
		}
	}
	for _, c := range []struct {
		file     string
		fellBack func(r toyResult) bool
	}{
		{lib.Phase1File, func(r toyResult) bool {
			a := r.out.Actions[1]
			return a.Phase1Reason == "stored phase-1 record unreadable" && a.Phase2Rebuilt && r.out.Phase1Rebuilds == 1
		}},
		{lib.ObjectFile, func(r toyResult) bool {
			a := r.out.Actions[1]
			return a.Phase2Reason == "stored object unreadable" && r.out.Phase1Rebuilds == 0 && r.out.Phase2Rebuilds == 1
		}},
		{m.Analyzer, func(r toyResult) bool {
			return offered[len(offered)-1] == nil && r.out.Analyzer.Fallback == "no analyzer state" &&
				r.out.Phase1Rebuilds == 0 && r.out.Phase2Rebuilds == 0
		}},
	} {
		path := filepath.Join(dir, c.file)
		orig := readArtifact(t, dir, c.file)
		for i := range orig {
			flipped := bytes.Clone(orig)
			flipped[i] ^= 0xff
			if err := os.WriteFile(path, flipped, 0o644); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s byte %d", c.file, i)
			r := toyBuild(t, dir, twoModules(), toyOptions{offered: &offered})
			if !c.fellBack(r) {
				t.Errorf("%s: not the declared fallback: %+v, analyzer %+v", what, r.out.Actions, r.out.Analyzer)
			}
			sameOutputs(what, r)
			if got := readArtifact(t, dir, c.file); !bytes.Equal(got, orig) {
				t.Fatalf("%s: the rebuild did not restore the artifact", what)
			}
		}
	}
}

// TestSalvagedObjectByteFlipsFallBack flips each byte of a stored object
// that a per-procedure salvage reads. A flipped object no longer matches
// its name, so the module's phase 2 runs whole instead of keeping stored
// code, the outputs equal a clean build's, and the rewrite restores the
// file. So does an object that reads back but does not hold the module's
// procedures in order.
func TestSalvagedObjectByteFlipsFallBack(t *testing.T) {
	dir := t.TempDir()
	toyBuild(t, dir, salvageModules(), toyOptions{})
	file := readManifest(t, dir).Modules["lib.mc"].ObjectFile
	path := filepath.Join(dir, file)
	orig := readArtifact(t, dir, file)
	// Alternating leaf's clobber set moves leaf's key on every build, so
	// each one salvages lib.mc; toy code ignores clobber sets, so the
	// object keeps its name.
	opts := []toyOptions{{clobber: map[string]regs.Set{"leaf": regs.Of(19)}}, {}}
	var cleans []toyResult
	for _, o := range opts {
		cleans = append(cleans, toyBuild(t, t.TempDir(), salvageModules(), o))
	}
	fellBack := func(what string, r toyResult, clean toyResult) {
		t.Helper()
		a := r.out.Actions[1]
		if a.Phase2Reason != "directives changed: leaf; stored object unreadable" || a.ProcsRecompiled != 3 ||
			!reflect.DeepEqual(r.procs, []string{"helper", "leaf", "other"}) {
			t.Errorf("%s: lib.mc recompiled %v (%d/%d, %q), want a whole-module phase 2",
				what, r.procs, a.ProcsRecompiled, a.Procs, a.Phase2Reason)
		}
		for i := range clean.objs {
			if !bytes.Equal(parv.EncodeObject(r.objs[i]), parv.EncodeObject(clean.objs[i])) {
				t.Errorf("%s: %s: object differs from a clean build's", what, clean.out.Actions[i].Module)
			}
		}
	}
	for i := range orig {
		flipped := bytes.Clone(orig)
		flipped[i] ^= 0xff
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("%s byte %d", file, i)
		fellBack(what, toyBuild(t, dir, salvageModules(), opts[i%2]), cleans[i%2])
		if got := readArtifact(t, dir, file); !bytes.Equal(got, orig) {
			t.Fatalf("%s: the rebuild did not restore the object", what)
		}
	}

	// An object named for its bytes whose procedures are not lib.mc's.
	short := parv.EncodeObject(&parv.Object{Module: "lib.mc", Funcs: cleans[0].objs[1].Funcs[:2]})
	m := readManifest(t, dir)
	m.Modules["lib.mc"].ObjectFile = artifactFile("obj", "lib.mc", short)
	if err := os.WriteFile(filepath.Join(dir, m.Modules["lib.mc"].ObjectFile), short, 0o644); err != nil {
		t.Fatal(err)
	}
	writeManifest(t, dir, m)
	k := len(orig) % 2
	fellBack("an object missing a procedure", toyBuild(t, dir, salvageModules(), opts[k]), cleans[k])
}

// TestBuildDirHoldsOnlyNamedFiles checks that after each kind of build the
// directory holds exactly the manifest and the files it names.
func TestBuildDirHoldsOnlyNamedFiles(t *testing.T) {
	onlyNamed := func(what, dir string) {
		t.Helper()
		m := readManifest(t, dir)
		want := []string{manifestName}
		if m.Analyzer != "" {
			want = append(want, m.Analyzer)
		}
		for _, ms := range m.Modules {
			want = append(want, ms.Phase1File, ms.ObjectFile)
		}
		sort.Strings(want)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: directory holds %v, want %v", what, got, want)
		}
	}
	var offered [][]byte
	analyzer := toyOptions{offered: &offered}
	edited := twoModules()
	edited[1].text = "helper>leaf leaf extra @g"

	dir := t.TempDir()
	toyBuild(t, dir, twoModules(), analyzer)
	onlyNamed("clean", dir)
	toyBuild(t, dir, edited, analyzer)
	onlyNamed("edit", dir)
	toyBuild(t, dir, edited[:1], analyzer)
	onlyNamed("module removal", dir)

	// Persist cut off after its artifact writes: a directory where the
	// manifest's temporary file belongs blocks the swap.
	dir = t.TempDir()
	toyBuild(t, dir, twoModules(), analyzer)
	block := filepath.Join(dir, manifestName+".tmp")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := toyBuildErr(t, dir, edited, toyOptions{offered: &offered, state: "state-cut"}); err == nil {
		t.Fatal("build with a blocked manifest swap succeeded")
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	toyBuild(t, dir, edited, analyzer)
	onlyNamed("interrupted persist, re-run", dir)

	// A directory in the older store format: a JSON manifest beside
	// records under their older names and the headered analyzer state.
	dir = t.TempDir()
	for name, data := range map[string]string{
		"manifest.json":                    "{\"fingerprint\": \"ipra-build/v2|toy/v1\", \"modules\": {}}",
		"p1-main_mc-0123456789abcdef.wire": "ipra-wire/1\n",
		"obj-lib_mc-0123456789abcdef.wire": "ipra-wire/1\n",
		"analyzer.state":                   "ipra-analyzer-store/v1\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	r := toyBuild(t, dir, twoModules(), toyOptions{offered: &offered, explain: &buf})
	if !r.out.StateReset || r.out.Phase1Rebuilds != 2 || r.out.Phase2Rebuilds != 2 {
		t.Errorf("older-format directory: reset %v, rebuilds %d/%d; want a reset and a full rebuild\n%s",
			r.out.StateReset, r.out.Phase1Rebuilds, r.out.Phase2Rebuilds, &buf)
	}
	if !strings.Contains(buf.String(), "discarding build state: manifest.json from an older store format") {
		t.Errorf("explain output missing the reset notice:\n%s", &buf)
	}
	onlyNamed("older store format", dir)
}

// TestManifestRoundTrip checks that a manifest decodes to what was
// encoded, and that the encoding does not depend on map order.
func TestManifestRoundTrip(t *testing.T) {
	m := manifest{
		Fingerprint: "ipra-build/v3|toy/v1",
		Analyzer:    "analyzer-state-00.wire",
		Modules: map[string]*moduleState{
			"b.mc": {SourceHash: "s2", Phase1File: "p1-b", ObjectFile: "obj-b", EligibleHash: "e", Directives: map[string]string{"f": "k1", "g": "k2"}},
			"a.mc": {SourceHash: "s1", Phase1File: "p1-a", ObjectFile: "obj-a", EligibleHash: "e", Directives: map[string]string{"g": "k2"}},
			"c.mc": {Directives: map[string]string{}},
		},
	}
	data := encodeManifest(&m)
	got, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("decoded %+v, want %+v", got, m)
	}
	for i := 0; i < 10; i++ {
		if !bytes.Equal(encodeManifest(&got), data) {
			t.Fatal("encoding depends on map order")
		}
	}
	if _, err := decodeManifest(data[:len(data)-1]); err == nil {
		t.Error("a truncated manifest decoded")
	}

	// A toy store's manifest round-trips to the same bytes.
	dir := t.TempDir()
	toyBuild(t, dir, twoModules(), toyOptions{offered: new([][]byte)})
	stored := readArtifact(t, dir, manifestName)
	if again := readManifest(t, dir); !bytes.Equal(encodeManifest(&again), stored) {
		t.Error("a stored manifest does not re-encode to its bytes")
	}
}

// FuzzManifestDecode: any input decodes to a manifest or an error, never a
// panic, and an accepted manifest re-encodes to one that decodes equal.
func FuzzManifestDecode(f *testing.F) {
	dir := f.TempDir()
	toyBuild(f, dir, twoModules(), toyOptions{offered: new([][]byte)})
	f.Add(readArtifact(f, dir, manifestName))
	edited := twoModules()
	edited[1].text = "helper>leaf leaf extra @g"
	toyBuild(f, dir, edited, toyOptions{clobber: map[string]regs.Set{"leaf": regs.Of(19)}})
	f.Add(readArtifact(f, dir, manifestName))
	f.Add([]byte("not a manifest"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		again, err := decodeManifest(encodeManifest(&m))
		if err != nil {
			t.Fatalf("re-decode of an accepted manifest failed: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatal("an accepted manifest does not round-trip")
		}
	})
}
