package pdb

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ipra/internal/regs"
	"ipra/internal/summary"
)

func TestStandardDirectives(t *testing.T) {
	d := Standard("f")
	if d.Name != "f" {
		t.Error("name lost")
	}
	if d.Caller != regs.StdCallerSaved() || d.Callee != regs.StdCalleeSaved() {
		t.Error("standard sets wrong")
	}
	if !d.Free.Empty() || !d.MSpill.Empty() {
		t.Error("standard directives must have empty FREE/MSPILL")
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

func TestLookupFallsBack(t *testing.T) {
	db := New()
	db.Procs["known"] = &ProcDirectives{Name: "known"}
	if db.Lookup("known").Name != "known" {
		t.Error("lookup missed")
	}
	d := db.Lookup("unknown")
	if d.Callee != regs.StdCalleeSaved() {
		t.Error("fallback is not the standard convention")
	}
	var nilDB *Database
	if nilDB.Lookup("x") == nil {
		t.Error("nil database must still return standard directives")
	}
}

func TestValidateCatchesOverlaps(t *testing.T) {
	d := &ProcDirectives{
		Name: "f",
		Free: regs.Of(5), Callee: regs.Of(5),
	}
	if err := d.Validate(); err == nil {
		t.Error("overlapping FREE/CALLEE accepted")
	}
	d = &ProcDirectives{
		Name:     "f",
		Caller:   regs.Of(19),
		Promoted: []PromotedGlobal{{Name: "g", Reg: 19}},
	}
	if err := d.Validate(); err == nil {
		t.Error("promoted register inside CALLER accepted")
	}
}

// TestValidateRegisterDomains: directives outside the register domains
// the analyzer draws from are rejected, each with the procedure's name.
func TestValidateRegisterDomains(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    ProcDirectives
	}{
		{"promoted register out of range", ProcDirectives{Promoted: []PromotedGlobal{{Name: "g", Reg: 200}}}},
		{"promoted caller-saves register", ProcDirectives{Promoted: []PromotedGlobal{{Name: "g", Reg: 19}}}},
		{"two globals in one register", ProcDirectives{Promoted: []PromotedGlobal{{Name: "a", Reg: 5}, {Name: "b", Reg: 5}}}},
		{"FREE holds every register", ProcDirectives{Free: ^regs.Set(0)}},
		{"FREE equals CALLEE", ProcDirectives{Free: regs.Of(4, 5), Callee: regs.Of(4, 5)}},
		{"CALLEE holds a caller-saves register", ProcDirectives{Callee: regs.Of(3, 19)}},
		{"MSPILL holds a linkage register", ProcDirectives{MSpill: regs.Of(2)}},
		{"CALLER holds the stack pointer", ProcDirectives{Caller: regs.Of(19, 30)}},
	} {
		tc.d.Name = "f"
		err := tc.d.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.HasPrefix(err.Error(), "f: ") {
			t.Errorf("%s: error %q does not name the procedure", tc.name, err)
		}
	}
	ok := ProcDirectives{
		Name:     "f",
		Free:     regs.Of(8),
		Caller:   regs.StdCallerSaved().Union(regs.Of(9)),
		Callee:   regs.Of(3, 4),
		MSpill:   regs.Of(10),
		Promoted: []PromotedGlobal{{Name: "a", Reg: 17}, {Name: "b", Reg: 18}},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid directives rejected: %v", err)
	}
}

// TestReadFileRejectsInvalidDatabases: a database file whose entry sits
// under another procedure's name, or whose directives fail Validate, does
// not load.
func TestReadFileRejectsInvalidDatabases(t *testing.T) {
	for _, tc := range []struct {
		name string
		db   *Database
	}{
		{"misfiled entry", &Database{Procs: map[string]*ProcDirectives{"f": Standard("g")}}},
		{"empty entry", &Database{Procs: map[string]*ProcDirectives{"f": nil}}},
		{"bad register", &Database{Procs: map[string]*ProcDirectives{"f": {Name: "f", Promoted: []PromotedGlobal{{Name: "g", Reg: 200}}}}}},
	} {
		path := filepath.Join(t.TempDir(), "p.pdb")
		if err := WriteFile(path, tc.db); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), "f: ") {
			t.Errorf("%s: error %q does not name the procedure", tc.name, err)
		}
	}
}

// TestDirectiveHashStability pins the canonical encoding Database.Hash is
// taken over: promotion order does not matter, and every field does.
func TestDirectiveHashStability(t *testing.T) {
	mk := func() *ProcDirectives {
		return &ProcDirectives{
			Name:   "f",
			Free:   regs.Of(8),
			Caller: regs.Of(19, 20),
			Callee: regs.Of(3),
			Promoted: []PromotedGlobal{
				{Name: "g", Reg: 17, IsEntry: true, NeedStore: true, WebID: 4},
				{Name: "a", Reg: 16, WebID: 2},
			},
		}
	}
	canon := func(d *ProcDirectives) string { return string(d.CanonicalBytes()) }
	d := mk()
	if canon(d) != canon(mk()) {
		t.Error("identical directives must encode identically")
	}

	// Promotion order must not matter: the canonical form sorts by name.
	swapped := mk()
	swapped.Promoted[0], swapped.Promoted[1] = swapped.Promoted[1], swapped.Promoted[0]
	if canon(swapped) != canon(d) {
		t.Error("promotion order changed the encoding")
	}
	if swapped.Promoted[0].Name != "a" {
		t.Error("canonicalization must not reorder the caller's slice")
	}

	// Every change must change the encoding, WebID included.
	for name, mut := range map[string]func(*ProcDirectives){
		"free set":      func(d *ProcDirectives) { d.Free = regs.Of(9) },
		"caller set":    func(d *ProcDirectives) { d.Caller = regs.Of(19) },
		"mspill set":    func(d *ProcDirectives) { d.MSpill = regs.Of(10) },
		"promotion reg": func(d *ProcDirectives) { d.Promoted[0].Reg = 15 },
		"need store":    func(d *ProcDirectives) { d.Promoted[1].NeedStore = true },
		"web id":        func(d *ProcDirectives) { d.Promoted[1].WebID = 3 },
		"cluster root":  func(d *ProcDirectives) { d.IsClusterRoot = true },
		"clobber":       func(d *ProcDirectives) { d.HasClobber = true; d.ClobberAtCalls = regs.Of(19) },
	} {
		c := mk()
		mut(c)
		if canon(c) == canon(d) {
			t.Errorf("%s change did not change the encoding", name)
		}
	}
}

// TestPhase2Key pins what the phase-2 keys cover: renumbering every web
// changes no key, and every field phase 2 reads changes the half of the
// key pair that covers it (the own key what a defining module reads, the
// call key what a calling module reads) and no other.
func TestPhase2Key(t *testing.T) {
	mk := func() *Database {
		db := New()
		db.EligibleGlobals = []string{"a", "g"}
		db.Procs["f"] = &ProcDirectives{
			Name:   "f",
			Free:   regs.Of(8),
			Caller: regs.Of(19, 20),
			Callee: regs.Of(3),
			MSpill: regs.Of(10),
			Promoted: []PromotedGlobal{
				{Name: "a", Reg: 16, WebID: 2},
				{Name: "g", Reg: 17, IsEntry: true, NeedStore: true, WebID: 4},
			},
			HasClobber:     true,
			ClobberAtCalls: regs.Of(19, 20, 21),
		}
		return db
	}
	globals := []summary.GlobalInfo{{Name: "a"}, {Name: "b"}, {Name: "g"}}
	type key struct {
		own         Key
		call        CallKey
		eligibility Key
	}
	keyOf := func(db *Database) key {
		k := db.Lookup("f").Phase2Keys()
		return key{k.Own, k.Call, NewKeys(db).Eligibility(globals)}
	}
	base := keyOf(mk())
	if want := (CallKey{1, 0, 0, 0x38, 0}); base.call != want {
		t.Errorf("call key %v, want HasClobber then ClobberAtCalls little-endian, %v", base.call, want)
	}

	// The program-wide table holds one pair per procedure a module defines
	// or calls directly; a procedure without directives gets the standard
	// convention's.
	ms := &summary.ModuleSummary{Module: "m.mc", Procs: []summary.ProcRecord{
		{Name: "f", Calls: []summary.CallSite{{Callee: "h"}, {Callee: "f"}}},
	}}
	table := NewKeys(mk()).Procs([]*summary.ModuleSummary{ms})
	if want := map[string]ProcKeys{"f": mk().Procs["f"].Phase2Keys(), "h": Standard("h").Phase2Keys()}; !reflect.DeepEqual(table, want) {
		t.Errorf("Procs = %v, want %v", table, want)
	}

	// Fields phase 2 never reads: no key moves.
	for name, mut := range map[string]func(*Database){
		"web ids renumbered": func(db *Database) {
			for i := range db.Procs["f"].Promoted {
				db.Procs["f"].Promoted[i].WebID += 100
			}
		},
		"undeclared global eligible": func(db *Database) { db.EligibleGlobals = append(db.EligibleGlobals, "zz") },
		"unrelated procedure":        func(db *Database) { db.Procs["h"] = Standard("h") },
		"directive name":             func(db *Database) { db.Procs["f"].Name = "f'" },
	} {
		db := mk()
		mut(db)
		if keyOf(db) != base {
			t.Errorf("%s changed a key", name)
		}
	}
	// ClobberAtCalls is read only when HasClobber is set.
	unset, other := mk(), mk()
	unset.Procs["f"].HasClobber, other.Procs["f"].HasClobber = false, false
	other.Procs["f"].ClobberAtCalls = regs.Of(4)
	if keyOf(unset) != keyOf(other) {
		t.Error("ClobberAtCalls moved a key although HasClobber is unset")
	}

	// Fields phase 2 reads: the half of the pair that covers them moves,
	// and no other.
	own, call := [2]bool{true, false}, [2]bool{false, true}
	for _, c := range []struct {
		name  string
		reads [2]bool // own key, call key
		mut   func(*ProcDirectives)
	}{
		{"promotion reg", own, func(d *ProcDirectives) { d.Promoted[0].Reg = 15 }},
		{"promotion name", own, func(d *ProcDirectives) { d.Promoted[0].Name = "b" }},
		{"promotion order", own, func(d *ProcDirectives) { d.Promoted[0], d.Promoted[1] = d.Promoted[1], d.Promoted[0] }},
		{"promotion dropped", own, func(d *ProcDirectives) { d.Promoted = d.Promoted[:1] }},
		{"is entry", own, func(d *ProcDirectives) { d.Promoted[0].IsEntry = true }},
		{"need store", own, func(d *ProcDirectives) { d.Promoted[1].NeedStore = false }},
		{"free set", own, func(d *ProcDirectives) { d.Free = regs.Of(9) }},
		{"caller set", own, func(d *ProcDirectives) { d.Caller = regs.Of(19) }},
		{"callee set", own, func(d *ProcDirectives) { d.Callee = regs.Of(4) }},
		{"mspill set", own, func(d *ProcDirectives) { d.MSpill = regs.Of(11) }},
		{"cluster root", own, func(d *ProcDirectives) { d.IsClusterRoot = true }},
		{"has clobber", call, func(d *ProcDirectives) { d.HasClobber = false }},
		{"clobber set", call, func(d *ProcDirectives) { d.ClobberAtCalls = regs.Of(19) }},
	} {
		db := mk()
		c.mut(db.Procs["f"])
		got := keyOf(db)
		if moved := got.own != base.own; moved != c.reads[0] {
			t.Errorf("%s: own key moved = %v, want %v", c.name, moved, c.reads[0])
		}
		if moved := got.call != base.call; moved != c.reads[1] {
			t.Errorf("%s: call key moved = %v, want %v", c.name, moved, c.reads[1])
		}
		if got.eligibility != base.eligibility {
			t.Errorf("%s: eligibility key moved", c.name)
		}
	}

	// Eligibility of a declared global moves the eligibility key only.
	for name, eligible := range map[string][]string{
		"declared global becomes eligible":   {"a", "b", "g"},
		"declared global becomes ineligible": {"a"},
	} {
		db := mk()
		db.EligibleGlobals = eligible
		got := keyOf(db)
		if got.eligibility == base.eligibility || got.own != base.own || got.call != base.call {
			t.Errorf("%s: eligibility key moved = %v, procedure keys moved = %v", name,
				got.eligibility != base.eligibility, got.own != base.own || got.call != base.call)
		}
	}
}

func TestDatabaseHashes(t *testing.T) {
	db := New()
	db.EligibleGlobals = []string{"b", "a"}
	db.Procs["f"] = Standard("f")

	other := New()
	other.EligibleGlobals = []string{"a", "b"}
	other.Procs["f"] = Standard("f")
	if db.EligibleHash() != other.EligibleHash() {
		t.Error("eligible hash must be order-insensitive")
	}
	if db.Hash() != other.Hash() {
		t.Error("equivalent databases must hash equal")
	}

	other.Procs["g"] = Standard("g")
	if db.Hash() == other.Hash() {
		t.Error("adding a procedure must change the database hash")
	}
	other = New()
	other.EligibleGlobals = []string{"a"}
	other.Procs["f"] = Standard("f")
	if db.Hash() == other.Hash() {
		t.Error("eligibility change must change the database hash")
	}
	// Unambiguous list encoding: ["ab"] vs ["a","b"].
	one := New()
	one.EligibleGlobals = []string{"ab"}
	two := New()
	two.EligibleGlobals = []string{"a", "b"}
	if one.EligibleHash() == two.EligibleHash() {
		t.Error("eligible hash must length-prefix elements")
	}
}

func TestDatabaseRoundtrip(t *testing.T) {
	db := New()
	db.EligibleGlobals = []string{"a", "b"}
	db.Procs["f"] = &ProcDirectives{
		Name:   "f",
		Free:   regs.Of(8, 9),
		Caller: regs.Of(19, 20),
		Callee: regs.Of(3),
		MSpill: regs.Of(10),
		Promoted: []PromotedGlobal{
			{Name: "g", Reg: 17, IsEntry: true, NeedStore: true, WebID: 4},
		},
		IsClusterRoot: true,
	}
	path := filepath.Join(t.TempDir(), "p.pdb")
	if err := WriteFile(path, db); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Procs["f"], db.Procs["f"]) {
		t.Errorf("roundtrip mismatch:\n%+v\n%+v", got.Procs["f"], db.Procs["f"])
	}
	if !reflect.DeepEqual(got.EligibleGlobals, db.EligibleGlobals) {
		t.Error("eligible globals lost")
	}
}
