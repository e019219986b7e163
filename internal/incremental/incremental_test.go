package incremental

import (
	"bytes"
	"context"
	"errors"
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
	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/regs"
	"ipra/internal/summary"
	"ipra/internal/telemetry"
	"ipra/internal/wire"
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
	tracer      *telemetry.Tracer // nil: the build is not traced
}

// toyResult is what one toy build compiled and produced.
type toyResult struct {
	out            *Outcome
	phase1, phase2 []string     // modules each phase compiled, in order
	procs          []string     // procedures phase 2 compiled, in order
	dirty          []string     // modules whose phase-1 record changed
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
	if o.tracer != nil {
		ctx = telemetry.WithTracer(ctx, o.tracer)
	}
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
	db := toyDB(r.sums, o)
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
	for _, a := range r.out.Actions {
		if a.Phase1Rebuilt && !a.Phase1Unchanged {
			r.dirty = append(r.dirty, a.Module)
		}
	}
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
// extra whitespace) re-runs phase 1 only. The module is not dirty, its
// phase 2 and stored record are reused, and the revert is the same.
func TestUnchangedPhase1RecordKeepsPhase2(t *testing.T) {
	dir := t.TempDir()
	toyBuild(t, dir, twoModules(), toyOptions{})
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
		r := toyBuild(t, dir, srcs, toyOptions{explain: &buf})
		if !reflect.DeepEqual(r.phase1, []string{"lib.mc"}) || r.out.Phase1Unchanged != 1 || r.out.Phase2Rebuilds != 0 {
			t.Errorf("phase 1 compiled %v (%d unchanged), phase-2 rebuilds %d; want lib.mc, 1, 0\n%s",
				r.phase1, r.out.Phase1Unchanged, r.out.Phase2Rebuilds, &buf)
		}
		if len(r.dirty) != 0 {
			t.Errorf("dirty modules %v, want none", r.dirty)
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
	tr := telemetry.New()
	r := toyBuild(t, dir, twoModules(), toyOptions{fingerprint: "toy/v2", explain: &buf, tracer: tr})
	if !r.out.StateReset {
		t.Error("fingerprint mismatch must be reported as a state reset")
	}
	if r.out.Phase1Rebuilds != 2 || r.out.Phase2Rebuilds != 2 {
		t.Errorf("rebuilds = %d/%d, want full rebuild", r.out.Phase1Rebuilds, r.out.Phase2Rebuilds)
	}
	if !strings.Contains(buf.String(), "discarding build state: fingerprint mismatch") {
		t.Errorf("explain output missing reset notice:\n%s", &buf)
	}
	// Explain names the cause once; each module's invalidate-phase1 event
	// still carries it, for traces that get no explain text.
	var causes []any
	for _, sp := range tr.Report().Spans {
		if sp.Name == "invalidate-phase1" {
			causes = append(causes, sp.Attrs["reason"])
		}
	}
	if len(causes) != 2 {
		t.Errorf("reset build traced %d invalidate-phase1 events, want 2", len(causes))
	}
	for _, c := range causes {
		if reason, _ := c.(string); !strings.HasPrefix(reason, "fingerprint mismatch") {
			t.Errorf("invalidate-phase1 reason = %v, want the fingerprint mismatch", c)
		}
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

	// Corrupt manifest: full rebuild, no error, and the reset calls it
	// unreadable, not an older format.
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var reset bytes.Buffer
	r := toyBuild(t, dir, twoModules(), toyOptions{explain: &reset})
	if !r.out.StateReset || r.out.Phase1Rebuilds != 2 {
		t.Errorf("corrupt manifest: reset=%v rebuilds=%d, want full reset", r.out.StateReset, r.out.Phase1Rebuilds)
	}
	if !strings.Contains(reset.String(), "discarding build state: unreadable manifest: wire: not a wire file") {
		t.Errorf("corrupt manifest: explain output:\n%s", &reset)
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

// TestConsultedProcs: the procedures whose keys a module reads are its
// own, by their own keys, and the direct callees its summary records
// (itself and runtime routines included, indirect calls not), by their
// call keys; the program-wide table holds exactly those.
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
	ms := summary.SummarizeModule(m)
	cur := pdb.NewKeys(pdb.New()).Procs([]*summary.ModuleSummary{ms})
	if got, want := sortedNames(cur), []string{"f", "g", "h", "putint"}; !reflect.DeepEqual(got, want) {
		t.Errorf("the table holds %v, want %v", got, want)
	}
	if got, want := movedProcs(ms, keyMoves(nil, cur)), []string{"f", "g", "h", "putint"}; !reflect.DeepEqual(got, want) {
		t.Errorf("against an empty table, moved %v, want %v", got, want)
	}
	for _, c := range []struct {
		half string
		want []string
	}{{"own", []string{"f", "h"}}, {"call", []string{"f", "g", "putint"}}} {
		prev := make(map[string]pdb.ProcKeys, len(cur))
		for name, k := range cur {
			if c.half == "own" {
				k.Own[0] ^= 1
			} else {
				k.Call[0] ^= 1
			}
			prev[name] = k
		}
		if got := movedProcs(ms, keyMoves(prev, cur)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("every %s key moved: the module reads %v, want %v", c.half, got, c.want)
		}
	}
}

// TestDiffDirectives pins keyMoves and movedProcs, the key diff: an unchanged
// pair is not moved, a moved own key moves a defined procedure, a moved
// call key a called one, a procedure missing from the previous table is
// moved, and a procedure the module does not read is not, whatever its
// keys did.
func TestDiffDirectives(t *testing.T) {
	ms := &summary.ModuleSummary{Module: "m.mc", Procs: []summary.ProcRecord{
		{Name: "a", Calls: []summary.CallSite{{Callee: "new"}, {Callee: "callee"}, {Callee: "a"}}},
		{Name: "b", Calls: []summary.CallSite{{Callee: "callee"}}},
		{Name: "own"},
	}}
	key := func(own, call byte) pdb.ProcKeys {
		return pdb.ProcKeys{Own: pdb.Key{own}, Call: pdb.CallKey{call}}
	}
	prev := map[string]pdb.ProcKeys{
		"a": key(1, 1), "b": key(2, 2), "gone": key(3, 3), "callee": key(4, 4), "own": key(5, 5),
	}
	cur := map[string]pdb.ProcKeys{
		"a": key(1, 1), "b": key(9, 2), "new": key(4, 4),
		// Only the half the module does not read moved.
		"callee": key(8, 4), "own": key(5, 8),
	}
	if got := movedProcs(ms, keyMoves(prev, cur)); !reflect.DeepEqual(got, []string{"b", "new"}) {
		t.Errorf("diff = %v, want [b new]", got)
	}
	cur["callee"], cur["a"] = key(4, 9), key(1, 7)
	if got := movedProcs(ms, keyMoves(prev, cur)); !reflect.DeepEqual(got, []string{"a", "b", "callee", "new"}) {
		t.Errorf("diff with moved call keys = %v, want [a b callee new]", got)
	}
	if got := movedProcs(ms, keyMoves(cur, cur)); got != nil {
		t.Errorf("self-diff = %v, want empty", got)
	}
}

// encodeParentManifest encodes m the way the parent store format
// (ipra-build/v3, build-manifest v1) did: the name of an analyzer state
// followed the fingerprint, and the modules were laid out as in v2.
func encodeParentManifest(m *manifest, analyzer string) []byte {
	e := wire.NewEncoder(manifestKind, 1)
	e.Str(m.Fingerprint)
	e.Str(analyzer)
	encodeV2Modules(e, m)
	return e.Finish()
}

// encodeV2Manifest encodes m in the build-manifest v2 layout (store format
// ipra-build/v4): the fingerprint, then per module its source hash, file
// names, hex eligibility key and one hex key per procedure it consults,
// here every procedure of m's table.
func encodeV2Manifest(m *manifest) []byte {
	e := wire.NewEncoder(manifestKind, 2)
	e.Str(m.Fingerprint)
	encodeV2Modules(e, m)
	return e.Finish()
}

func encodeV2Modules(e *wire.Encoder, m *manifest) {
	names := sortedNames(m.Modules)
	e.U(uint64(len(names)))
	for _, name := range names {
		ms := m.Modules[name]
		e.Str(name)
		e.Str(ms.SourceHash)
		e.Str(ms.Phase1File)
		e.Str(ms.ObjectFile)
		e.Str(fmt.Sprintf("%x", ms.Eligibility))
		procs := sortedNames(m.Procs)
		e.U(uint64(len(procs)))
		for _, proc := range procs {
			e.Str(proc)
			e.Str(fmt.Sprintf("%x", m.Procs[proc].Own))
		}
	}
}

// TestAnalyzerStateParentFile opens a directory in the parent store
// format: a build-manifest v1 under the ipra-build/v3 fingerprint that
// names an analyzer-state-*.wire beside the modules' records and objects.
// The build takes one declared reset, rebuilds every module, and leaves
// exactly the files its new manifest names; the next build reuses every
// module, and both equal a clean build.
func TestAnalyzerStateParentFile(t *testing.T) {
	dir := t.TempDir()
	toyBuild(t, dir, twoModules(), toyOptions{})
	m := readManifest(t, dir)
	m.Fingerprint = "ipra-build/v3|toy/v1"
	state := artifactFile("analyzer-state", "", []byte("analyzer-state-blob"))
	if err := os.WriteFile(filepath.Join(dir, state), []byte("analyzer-state-blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), encodeParentManifest(&m, state), 0o644); err != nil {
		t.Fatal(err)
	}

	clean := toyBuild(t, t.TempDir(), twoModules(), toyOptions{})
	sameAsClean := func(what string, r toyResult) {
		t.Helper()
		for i := range clean.objs {
			if !bytes.Equal(parv.EncodeObject(r.objs[i]), parv.EncodeObject(clean.objs[i])) {
				t.Errorf("%s: %s: object differs from a clean build's", what, clean.out.Actions[i].Module)
			}
		}
	}
	var buf bytes.Buffer
	r := toyBuild(t, dir, twoModules(), toyOptions{explain: &buf})
	if !r.out.StateReset || r.out.Phase1Rebuilds != 2 || r.out.Phase2Rebuilds != 2 {
		t.Errorf("parent-format directory: reset %v, rebuilds %d/%d; want one reset and a full rebuild\n%s",
			r.out.StateReset, r.out.Phase1Rebuilds, r.out.Phase2Rebuilds, &buf)
	}
	// The manifest's only fault is its older wire version: the reset names
	// the older format, once, and every module line says only that the
	// state was reset.
	notice := "discarding build state: manifest.wire from an older store format"
	if n := strings.Count(buf.String(), notice); n != 1 {
		t.Errorf("explain output holds the reset notice %d times, want once:\n%s", n, &buf)
	}
	if n := strings.Count(buf.String(), "older store format"); n != 1 {
		t.Errorf("explain output repeats the reset reason (%d times):\n%s", n, &buf)
	}
	if !strings.Contains(buf.String(), "lib.mc: phase 1 recompiled (state reset); phase 2 recompiled (state reset)") {
		t.Errorf("explain output missing the per-module reset line:\n%s", &buf)
	}
	sameAsClean("reset build", r)
	onlyNamedFiles(t, "parent-format directory", dir)

	r = toyBuild(t, dir, twoModules(), toyOptions{})
	if r.out.StateReset || r.out.Phase1Rebuilds != 0 || r.out.Phase2Rebuilds != 0 {
		t.Errorf("build after the reset: reset %v, rebuilds %d/%d; want every module reused",
			r.out.StateReset, r.out.Phase1Rebuilds, r.out.Phase2Rebuilds)
	}
	sameAsClean("build after the reset", r)
}

// TestArtifactByteFlipsFallBack flips each byte of a stored phase-1
// record and object in turn. A flipped artifact no longer
// matches its name, so every flip is that artifact's declared fallback,
// the build's outputs equal a clean build's, and the rewrite restores the
// file's bytes.
func TestArtifactByteFlipsFallBack(t *testing.T) {
	dir := t.TempDir()
	clean := toyBuild(t, dir, twoModules(), toyOptions{})
	lib := readManifest(t, dir).Modules["lib.mc"]
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
			r := toyBuild(t, dir, twoModules(), toyOptions{})
			if !c.fellBack(r) {
				t.Errorf("%s: not the declared fallback: %+v", what, r.out.Actions)
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

// onlyNamedFiles checks that dir holds exactly the manifest and the files
// it names.
func onlyNamedFiles(t *testing.T, what, dir string) {
	t.Helper()
	m := readManifest(t, dir)
	want := []string{manifestName}
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

// TestBuildDirHoldsOnlyNamedFiles checks that after each kind of build the
// directory holds exactly the manifest and the files it names.
func TestBuildDirHoldsOnlyNamedFiles(t *testing.T) {
	edited := twoModules()
	edited[1].text = "helper>leaf leaf extra @g"

	dir := t.TempDir()
	toyBuild(t, dir, twoModules(), toyOptions{})
	onlyNamedFiles(t, "clean", dir)
	toyBuild(t, dir, edited, toyOptions{})
	onlyNamedFiles(t, "edit", dir)
	toyBuild(t, dir, edited[:1], toyOptions{})
	onlyNamedFiles(t, "module removal", dir)

	// Persist cut off after its artifact writes: a directory where the
	// manifest's temporary file belongs blocks the swap.
	dir = t.TempDir()
	toyBuild(t, dir, twoModules(), toyOptions{})
	block := filepath.Join(dir, manifestName+".tmp")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := toyBuildErr(t, dir, edited, toyOptions{}); err == nil {
		t.Fatal("build with a blocked manifest swap succeeded")
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	toyBuild(t, dir, edited, toyOptions{})
	onlyNamedFiles(t, "interrupted persist, re-run", dir)

	// A directory in an older store format: a JSON manifest beside
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
	r := toyBuild(t, dir, twoModules(), toyOptions{explain: &buf})
	if !r.out.StateReset || r.out.Phase1Rebuilds != 2 || r.out.Phase2Rebuilds != 2 {
		t.Errorf("older-format directory: reset %v, rebuilds %d/%d; want a reset and a full rebuild\n%s",
			r.out.StateReset, r.out.Phase1Rebuilds, r.out.Phase2Rebuilds, &buf)
	}
	if !strings.Contains(buf.String(), "discarding build state: manifest.json from an older store format") {
		t.Errorf("explain output missing the reset notice:\n%s", &buf)
	}
	onlyNamedFiles(t, "older store format", dir)
}

// TestManifestRoundTrip checks that a manifest decodes to what was
// encoded, that the encoding does not depend on map order, that a key
// several procedures share is stored once, and that a key of the wrong
// length or a v2 manifest does not decode.
func TestManifestRoundTrip(t *testing.T) {
	own := func(b byte) pdb.Key { return pdb.Key{0: b, 15: b} }
	m := manifest{
		Fingerprint: "ipra-build/v5|toy/v1",
		Modules: map[string]*moduleState{
			"b.mc": {SourceHash: "s2", Phase1File: "p1-b", ObjectFile: "obj-b", Eligibility: own(7)},
			"a.mc": {SourceHash: "s1", Phase1File: "p1-a", ObjectFile: "obj-a", Eligibility: own(7)},
			"c.mc": {},
		},
		Procs: map[string]pdb.ProcKeys{
			"f":      {Own: own(1)},
			"g":      {Own: own(2), Call: pdb.CallKey{1, 0x18}},
			"putint": {Own: own(1)},
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
	if n := bytes.Count(data, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}); n != 1 {
		t.Errorf("an own key two procedures share is stored %d times, want once", n)
	}
	if _, err := decodeManifest(data[:len(data)-1]); err == nil {
		t.Error("a truncated manifest decoded")
	}
	// A module's eligibility key, and a procedure's own and call keys, of
	// the wrong length.
	for _, short := range []func(e *wire.Encoder){
		func(e *wire.Encoder) {
			e.U(1)
			for _, s := range []string{"a.mc", "", "", "", "short"} {
				e.Str(s)
			}
			e.U(0)
		},
		func(e *wire.Encoder) {
			e.U(0)
			e.U(1)
			e.Str("f")
			e.Str(string(make([]byte, 15)))
			e.Str(string(make([]byte, 5)))
		},
		func(e *wire.Encoder) {
			e.U(0)
			e.U(1)
			e.Str("f")
			e.Str(string(make([]byte, 16)))
			e.Str(string(make([]byte, 16)))
		},
	} {
		e := wire.NewEncoder(manifestKind, manifestVersion)
		e.Str("ipra-build/v5|toy/v1")
		short(e)
		if _, err := decodeManifest(e.Finish()); err == nil || !strings.Contains(err.Error(), "wrong length") {
			t.Errorf("a manifest holding a key of the wrong length decoded (%v)", err)
		}
	}
	if _, err := decodeManifest(encodeV2Manifest(&m)); !errors.Is(err, wire.ErrOldVersion) {
		t.Errorf("a v2 manifest reads as %v, want an older version", err)
	}

	// A toy store's manifest round-trips to the same bytes.
	dir := t.TempDir()
	toyBuild(t, dir, twoModules(), toyOptions{})
	stored := readArtifact(t, dir, manifestName)
	if again := readManifest(t, dir); !bytes.Equal(encodeManifest(&again), stored) {
		t.Error("a stored manifest does not re-encode to its bytes")
	}
}

// TestV2ManifestResetsOnce opens a directory an ipra-build/v4 store wrote:
// its build-manifest v2 is an older version, so the build takes one
// declared reset, rebuilds every module to a clean build's objects, and
// the next build reuses every module.
func TestV2ManifestResetsOnce(t *testing.T) {
	dir := t.TempDir()
	clean := toyBuild(t, dir, twoModules(), toyOptions{})
	m := readManifest(t, dir)
	m.Fingerprint = "ipra-build/v4|toy/v1"
	if err := os.WriteFile(filepath.Join(dir, manifestName), encodeV2Manifest(&m), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r := toyBuild(t, dir, twoModules(), toyOptions{explain: &buf})
	if !r.out.StateReset || r.out.Phase1Rebuilds != 2 || r.out.Phase2Rebuilds != 2 ||
		strings.Count(buf.String(), "discarding build state: manifest.wire from an older store format") != 1 {
		t.Errorf("v2 manifest: reset %v, rebuilds %d/%d; want one declared reset and a full rebuild\n%s",
			r.out.StateReset, r.out.Phase1Rebuilds, r.out.Phase2Rebuilds, &buf)
	}
	for i := range clean.objs {
		if !bytes.Equal(parv.EncodeObject(r.objs[i]), parv.EncodeObject(clean.objs[i])) {
			t.Errorf("%s: object differs from a clean build's", clean.out.Actions[i].Module)
		}
	}
	onlyNamedFiles(t, "v2 manifest", dir)
	if r := toyBuild(t, dir, twoModules(), toyOptions{}); r.out.StateReset || r.out.Phase1Rebuilds != 0 || r.out.Phase2Rebuilds != 0 {
		t.Errorf("build after the reset: reset %v, rebuilds %d/%d; want every module reused",
			r.out.StateReset, r.out.Phase1Rebuilds, r.out.Phase2Rebuilds)
	}
}

// FuzzManifestDecode: any input decodes to a manifest or an error, never a
// panic, and an accepted manifest re-encodes to one that decodes equal.
// The seeds are two stored (v3) manifests, a non-manifest, manifests in
// the v1 and v2 layouts, and a stored manifest whose procedures hold
// clobber contracts.
func FuzzManifestDecode(f *testing.F) {
	dir := f.TempDir()
	toyBuild(f, dir, twoModules(), toyOptions{})
	f.Add(readArtifact(f, dir, manifestName))
	edited := twoModules()
	edited[1].text = "helper>leaf leaf extra @g"
	toyBuild(f, dir, edited, toyOptions{clobber: map[string]regs.Set{"leaf": regs.Of(19)}})
	f.Add(readArtifact(f, dir, manifestName))
	f.Add([]byte("not a manifest"))
	parent := readManifest(f, dir)
	f.Add(encodeParentManifest(&parent, "analyzer-state-00.wire"))
	f.Add(encodeV2Manifest(&parent))
	toyBuild(f, dir, edited, toyOptions{clobber: map[string]regs.Set{"leaf": regs.Of(19), "helper": regs.Of(20, 21)}, promote: map[string]uint8{"main": 16}})
	f.Add(readArtifact(f, dir, manifestName))
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
