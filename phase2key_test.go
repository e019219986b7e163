package ipra

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"ipra/internal/benchprogs"
	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/progen"
	"ipra/internal/regs"
	"ipra/internal/summary"
)

// keyFamily is one list of phase-1 modules, their summaries, and several
// databases to compile them under.
type keyFamily struct {
	name    string
	modules []*ir.Module
	sums    []*summary.ModuleSummary
	dbs     []*pdb.Database
}

// keyConfigs are the configurations keyFamilies builds under: L2, A–F,
// and C with caller-saves preallocation, the one whose databases publish
// clobber contracts, which the call key covers.
func keyConfigs() []Config {
	prealloc := MustPreset("C")
	prealloc.Name = "C+prealloc"
	prealloc.Analyzer.CallerSavesPreallocation = true
	return append(determinismConfigs(), prealloc)
}

// keyFamilies builds the database pairs TestPhase2KeySoundness compares,
// under keyConfigs: each generated program before and after one edit of
// every kind (the edited modules compiled under both databases), and each
// benchmark program under every configuration.
func keyFamilies(t *testing.T) []keyFamily {
	t.Helper()
	build := func(sources []Source, cfg Config, trainInstrs uint64) *BuildResult {
		t.Helper()
		var opts []BuildOption
		if cfg.WantProfile {
			opts = append(opts, WithProfile(trainInstrs))
		}
		res, err := Build(context.Background(), sources, cfg, opts...)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		return res
	}
	var fams []keyFamily
	for _, seed := range []int64{11, 12, 13} {
		pcfg := analyzerEditConfig()
		pcfg.Seed = seed
		base := progen.Generate(pcfg)
		for _, cfg := range keyConfigs() {
			before := build(progenSources(base), cfg, 5_000_000)
			for i, kind := range progen.EditKinds() {
				edited, desc := progen.Mutate(pcfg, base, seed*100+int64(i), kind)
				after := build(progenSources(edited), cfg, 5_000_000)
				fams = append(fams, keyFamily{
					name:    fmt.Sprintf("progen%d/%s/%s", seed, cfg.Name, desc),
					modules: after.Modules,
					sums:    after.Summaries,
					dbs:     []*pdb.Database{before.DB, after.DB},
				})
			}
		}
	}
	for _, b := range benchprogs.All() {
		fam := keyFamily{name: b.Name}
		for _, cfg := range keyConfigs() {
			res := build(benchSources(t, b), cfg, b.MaxInstrs)
			fam.modules, fam.sums = res.Modules, res.Summaries
			fam.dbs = append(fam.dbs, res.DB)
		}
		fams = append(fams, fam)
	}
	return fams
}

// use says which half of a procedure's key pair one module's phase 2
// reads: the own key where the module defines the procedure, the call key
// where it calls the procedure directly.
type use uint8

const (
	useOwn use = 1 << iota
	useCall
)

// moduleUses is what the phase 2 of the module ms summarizes reads: the
// own keys of its procedures and the call keys of the direct callees its
// summary records, the halves the build's key diff compares.
func moduleUses(ms *summary.ModuleSummary) map[string]use {
	uses := make(map[string]use)
	for i := range ms.Procs {
		for name, u := range procUses(&ms.Procs[i]) {
			uses[name] |= u
		}
	}
	return uses
}

// procUses is what phase 2 of procedure p reads of the database: its own
// directives and its direct callees' clobber contracts.
func procUses(p *summary.ProcRecord) map[string]use {
	uses := map[string]use{p.Name: useOwn}
	for _, c := range p.Calls {
		uses[c.Callee] |= useCall
	}
	return uses
}

// readKeys returns, of each procedure uses names, the halves of its key
// pair in table that uses reads, the other half zero.
func readKeys(table map[string]pdb.ProcKeys, uses map[string]use) map[string]pdb.ProcKeys {
	keys := make(map[string]pdb.ProcKeys, len(uses))
	for name, u := range uses {
		k := table[name]
		if u&useOwn == 0 {
			k.Own = pdb.Key{}
		}
		if u&useCall == 0 {
			k.Call = pdb.CallKey{}
		}
		keys[name] = k
	}
	return keys
}

// keyTwin returns a database that agrees with db on everything the
// phase-2 keys of uses and of the globals a module declares cover, and
// rewrites everything else: every WebID and Name; the directives of
// procedures uses does not name (including procedures db has none for);
// everything but the clobber contract of procedures it names only as
// called; the clobber contract of procedures it names only as defined, and
// ClobberAtCalls wherever HasClobber is unset; and the eligibility of every
// global not declared. uses is a module's (moduleUses) or one procedure's
// (procUses); procs and globals name every procedure and global of the
// program.
func keyTwin(db *pdb.Database, uses map[string]use, declared []summary.GlobalInfo, procs, globals []string) *pdb.Database {
	twin := pdb.New()
	for _, name := range procs {
		u := uses[name]
		src, ok := db.Procs[name]
		if !ok {
			if u != 0 {
				continue // the standard fallback, either way
			}
			src = pdb.Standard(name)
		}
		d := *src
		d.Name = name + "'"
		d.Promoted = append([]pdb.PromotedGlobal(nil), src.Promoted...)
		for i := range d.Promoted {
			d.Promoted[i].WebID = 1000 - d.Promoted[i].WebID
		}
		if u&useOwn == 0 {
			d.Promoted = append(d.Promoted, pdb.PromotedGlobal{Name: globals[0], Reg: 18, IsEntry: true, NeedStore: true})
			d.Free, d.Caller, d.Callee, d.MSpill = d.MSpill, d.Free, d.Caller, d.Callee
			d.IsClusterRoot = !d.IsClusterRoot
		}
		if u&useCall == 0 {
			d.HasClobber = !d.HasClobber
		}
		if u&useCall == 0 || !d.HasClobber {
			d.ClobberAtCalls ^= 0x0007fff8
		}
		twin.Procs[name] = &d
	}
	isDeclared := make(map[string]bool, len(declared))
	for _, g := range declared {
		isDeclared[g.Name] = true
	}
	eligible := db.EligibleSet()
	for _, g := range globals {
		if eligible[g] != !isDeclared[g] {
			twin.EligibleGlobals = append(twin.EligibleGlobals, g)
		}
	}
	return twin
}

// dropLowest removes the lowest register of *s, reporting false when *s
// is empty.
func dropLowest(s *regs.Set) bool {
	if s.Empty() {
		return false
	}
	*s = s.Remove(s.Regs()[0])
	return true
}

// directiveFlips change one field of the directives that phase 2 reads,
// each in a way phase 2 can compile; flip reports false when the change
// does not apply. An own flip changes a field of a procedure's own
// directives, which its own key covers; a call flip changes a field of
// the clobber contract of one of its direct callees, which the callee's
// call key covers. Each field must move some procedure's code somewhere
// in keyFamilies, or the families would not show that the keys have to
// cover it. Codegen reads a callee without a contract, or with an empty
// one, as clobbering every caller-saves register, so only clearing
// HasClobber, not setting it, can move a caller's code.
var directiveFlips = []struct {
	field string
	call  bool
	flip  func(d *pdb.ProcDirectives) bool
}{
	{"FREE", false, func(d *pdb.ProcDirectives) bool { return dropLowest(&d.Free) }},
	{"CALLER", false, func(d *pdb.ProcDirectives) bool { return dropLowest(&d.Caller) }},
	{"CALLEE", false, func(d *pdb.ProcDirectives) bool { return dropLowest(&d.Callee) }},
	{"MSPILL", false, func(d *pdb.ProcDirectives) bool { return dropLowest(&d.MSpill) }},
	{"IsClusterRoot", false, func(d *pdb.ProcDirectives) bool {
		d.IsClusterRoot = !d.IsClusterRoot
		return !d.MSpill.Empty()
	}},
	{"IsEntry", false, func(d *pdb.ProcDirectives) bool {
		if len(d.Promoted) == 0 {
			return false
		}
		d.Promoted[0].IsEntry = !d.Promoted[0].IsEntry
		return true
	}},
	{"NeedStore", false, func(d *pdb.ProcDirectives) bool {
		if len(d.Promoted) == 0 {
			return false
		}
		d.Promoted[0].NeedStore = !d.Promoted[0].NeedStore
		return true
	}},
	{"HasClobber", true, func(d *pdb.ProcDirectives) bool {
		if !d.HasClobber || d.ClobberAtCalls.Empty() {
			return false
		}
		d.HasClobber = false
		return true
	}},
	{"ClobberAtCalls", true, func(d *pdb.ProcDirectives) bool {
		// Its lowest caller-saves register: rp, below it, never holds a
		// value across a call.
		cs := d.ClobberAtCalls.Intersect(regs.StdCallerSaved())
		if !d.HasClobber || cs.Empty() {
			return false
		}
		d.ClobberAtCalls = d.ClobberAtCalls.Remove(cs.Regs()[0])
		return true
	}},
}

// TestPhase2KeySoundness is the differential behind pdb's phase-2 keys:
// whenever a module's key is equal under two databases, a build's phase 2
// produces byte-identical objects under both; and whenever a procedure's
// own key, its direct callees' keys and its module's eligibility key are
// equal, its code is byte-identical, whatever the module's other keys do,
// which is what lets a build keep the stored code of such a procedure. The
// modules are a build's level-1 IR (Program.Modules), so they go to
// phase2Module, not to Phase2, which takes Phase1 output. Besides the
// database pairs keyFamilies builds, every database is compared against
// its keyTwin for every module, and for every procedure against the twin
// of that procedure's key, whose keys must be equal: the test fails as
// soon as phase 2 reads something the keys omit. Every procedure is also
// compiled under each of the directiveFlips of its own directives and of
// each direct callee's: where its keys stay equal its code must too, and
// every flip must move some procedure's code, so a key that stopped
// covering a field phase 2 reads fails the test.
func TestPhase2KeySoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("full-build differential matrix")
	}
	type moduleKey struct {
		eligibility pdb.Key
		procs       map[string]pdb.ProcKeys
	}
	// keyOf is the whole key of the module ms summarizes under db, the
	// keys the build's diff compares: its eligibility key, and the halves
	// of the key pairs pdb.Keys.Procs computes that it reads. table is
	// that table.
	keyOf := func(ms *summary.ModuleSummary, db *pdb.Database) (key moduleKey, table map[string]pdb.ProcKeys) {
		keys := pdb.NewKeys(db)
		table = keys.Procs([]*summary.ModuleSummary{ms})
		return moduleKey{keys.Eligibility(ms.Globals), readKeys(table, moduleUses(ms))}, table
	}
	compile := func(m *ir.Module, db *pdb.Database) *parv.Object {
		t.Helper()
		obj, err := phase2Module(context.Background(), m, db, db.EligibleSet(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return obj
	}
	funcBytes := func(f *parv.ObjFunc) []byte {
		return parv.EncodeObject(&parv.Object{Funcs: []*parv.ObjFunc{f}})
	}
	var sameKey, sameKeyDiffDB, diffKey, twins int
	var procSame, procSameDiffDB, procSameDiffModule, procTwins int
	flipsTried, flipsMoved := make([]int, len(directiveFlips)), make([]int, len(directiveFlips))
	for _, fam := range keyFamilies(t) {
		procSet, globalSet := map[string]bool{}, map[string]bool{}
		for _, m := range fam.modules {
			for _, f := range m.Funcs {
				procSet[f.Name] = true
			}
			for _, g := range m.Globals {
				globalSet[g.Name] = true
			}
		}
		for _, db := range fam.dbs {
			for _, d := range db.Procs {
				procSet[d.Name] = true
			}
		}
		procs, globals := sortedKeys(procSet), append(sortedKeys(globalSet), "unnamed'")

		for mi, m := range fam.modules {
			ms := fam.sums[mi]
			for k, f := range m.Funcs {
				if ms.Procs[k].Name != f.Name {
					t.Fatalf("%s/%s: summary procedure %d is %s, function %s", fam.name, m.Name, k, ms.Procs[k].Name, f.Name)
				}
			}
			uses := make([]map[string]use, len(ms.Procs))
			for k := range ms.Procs {
				uses[k] = procUses(&ms.Procs[k])
			}
			objs := make([]*parv.Object, len(fam.dbs))
			keys := make([]moduleKey, len(fam.dbs))
			pkeys := make([][]map[string]pdb.ProcKeys, len(fam.dbs))
			for i, db := range fam.dbs {
				var table map[string]pdb.ProcKeys
				objs[i] = compile(m, db)
				keys[i], table = keyOf(ms, db)
				twin := keyTwin(db, moduleUses(ms), ms.Globals, procs, globals)
				if twinKey, _ := keyOf(ms, twin); !reflect.DeepEqual(twinKey, keys[i]) {
					t.Fatalf("%s/%s: the twin of database %d has a different key", fam.name, m.Name, i)
				}
				if !bytes.Equal(parv.EncodeObject(compile(m, twin)), parv.EncodeObject(objs[i])) {
					t.Errorf("%s/%s: database %d and its twin have equal keys but compile differently: phase 2 reads something the keys omit",
						fam.name, m.Name, i)
				}
				twins++
				pkeys[i] = make([]map[string]pdb.ProcKeys, len(ms.Procs))
				for k, f := range m.Funcs {
					pkeys[i][k] = readKeys(table, uses[k])
					twin := keyTwin(db, uses[k], ms.Globals, procs, globals)
					twinKey, twinTable := keyOf(ms, twin)
					if !reflect.DeepEqual(readKeys(twinTable, uses[k]), pkeys[i][k]) || twinKey.eligibility != keys[i].eligibility {
						t.Fatalf("%s/%s/%s: the procedure twin of database %d has a different key", fam.name, m.Name, f.Name, i)
					}
					of, err := phase2Func(f, m, twin, twin.EligibleSet())
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(funcBytes(of), funcBytes(objs[i].Funcs[k])) {
						t.Errorf("%s/%s/%s: database %d and its procedure twin have equal keys but compile differently: phase 2 of a procedure reads something its keys omit",
							fam.name, m.Name, f.Name, i)
					}
					procTwins++

					for fi, fl := range directiveFlips {
						for name, u := range uses[k] {
							if (fl.call && u&useCall == 0) || (!fl.call && name != f.Name) {
								continue
							}
							orig, had := db.Procs[name]
							d := *db.Lookup(name)
							d.Promoted = append([]pdb.PromotedGlobal(nil), d.Promoted...)
							if !fl.flip(&d) {
								continue
							}
							db.Procs[name] = &d
							_, flipped := keyOf(ms, db)
							of, err := phase2Func(f, m, db, db.EligibleSet())
							if had {
								db.Procs[name] = orig
							} else {
								delete(db.Procs, name)
							}
							if err != nil {
								t.Fatal(err)
							}
							flipsTried[fi]++
							moved := !bytes.Equal(funcBytes(of), funcBytes(objs[i].Funcs[k]))
							if moved {
								flipsMoved[fi]++
							}
							if moved && reflect.DeepEqual(readKeys(flipped, uses[k]), pkeys[i][k]) {
								t.Errorf("%s/%s/%s: database %d with %s of %s flipped has equal keys but compiles differently: the keys omit %s",
									fam.name, m.Name, f.Name, i, fl.field, name, fl.field)
							}
						}
					}
				}
			}
			for i := range fam.dbs {
				for j := i + 1; j < len(fam.dbs); j++ {
					diffDB := fam.dbs[i].Hash() != fam.dbs[j].Hash()
					moduleEqual := reflect.DeepEqual(keys[i], keys[j])
					if !moduleEqual {
						diffKey++
					} else {
						sameKey++
						if diffDB {
							sameKeyDiffDB++
						}
						if !bytes.Equal(parv.EncodeObject(objs[i]), parv.EncodeObject(objs[j])) {
							t.Errorf("%s/%s: databases %d and %d have equal keys but compile differently", fam.name, m.Name, i, j)
						}
					}
					if keys[i].eligibility != keys[j].eligibility {
						continue
					}
					for k, f := range m.Funcs {
						if !reflect.DeepEqual(pkeys[i][k], pkeys[j][k]) {
							continue
						}
						procSame++
						if diffDB {
							procSameDiffDB++
						}
						if !moduleEqual {
							procSameDiffModule++
						}
						if !bytes.Equal(funcBytes(objs[i].Funcs[k]), funcBytes(objs[j].Funcs[k])) {
							t.Errorf("%s/%s/%s: databases %d and %d have equal procedure keys but compile it differently",
								fam.name, m.Name, f.Name, i, j)
						}
					}
				}
			}
		}
	}
	t.Logf("%d equal-key pairs (%d of them under different databases), %d different-key pairs, %d twins",
		sameKey, sameKeyDiffDB, diffKey, twins)
	t.Logf("%d equal-key procedure pairs (%d of them under different databases, %d in modules whose keys differ), %d procedure twins",
		procSame, procSameDiffDB, procSameDiffModule, procTwins)
	if sameKeyDiffDB == 0 || diffKey == 0 {
		t.Error("the database pairs never exercise the key: no equal key under different databases, or no differing key")
	}
	if procSameDiffDB == 0 || procSameDiffModule == 0 {
		t.Error("the database pairs never exercise the procedure keys: no equal procedure key under different databases, or none in a module whose key differs")
	}
	for fi, fl := range directiveFlips {
		t.Logf("flipping %s moved the code of %d of %d procedures compiled under it", fl.field, flipsMoved[fi], flipsTried[fi])
		if flipsMoved[fi] == 0 {
			t.Errorf("flipping %s never moved a procedure's code: the families do not show that the keys must cover it", fl.field)
		}
	}
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
