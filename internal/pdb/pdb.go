// Package pdb implements the program database (§4.3 of the paper): the
// per-procedure register allocation directives computed by the program
// analyzer and consulted by the compiler second phase.
//
// Because the directives are precomputed and stored in one database, the
// second phase can compile source modules independently and in any order —
// the property that makes the scheme work across module boundaries.
package pdb

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"ipra/internal/regs"
)

// PromotedGlobal records that a global variable is promoted to a specific
// register in a procedure (§4.3).
type PromotedGlobal struct {
	Name string `json:"name"`
	Reg  uint8  `json:"reg"`
	// IsEntry marks web entry procedures, where the second phase inserts
	// the load at entry (and store at exit if NeedStore).
	IsEntry bool `json:"isEntry,omitempty"`
	// NeedStore is false when no procedure of the web modifies the
	// variable, eliminating the store at entry procedures (§5).
	NeedStore bool `json:"needStore,omitempty"`
	WebID     int  `json:"webID,omitempty"`
}

// ProcDirectives are the analyzer's directives for one procedure.
type ProcDirectives struct {
	Name string `json:"name"`

	Promoted []PromotedGlobal `json:"promoted,omitempty"`

	// The four register usage sets of §4.2.3. The register allocator must
	// use each register according to the properties of its set.
	Free   regs.Set `json:"free"`
	Caller regs.Set `json:"caller"`
	Callee regs.Set `json:"callee"`
	MSpill regs.Set `json:"mspill"`

	IsClusterRoot bool `json:"isClusterRoot,omitempty"`

	// ClobberAtCalls, when HasClobber is set, lists every register a call
	// to this procedure may destroy: its own (contracted) caller-saves and
	// FREE registers, the linkage registers, and the closure over its call
	// tree (§7.6.2, the [Chow 88]-style caller-saves preallocation). A
	// caller may keep values across the call in any register outside this
	// set.
	ClobberAtCalls regs.Set `json:"clobberAtCalls,omitempty"`
	HasClobber     bool     `json:"hasClobber,omitempty"`
}

// Database is the whole program database.
type Database struct {
	Procs map[string]*ProcDirectives `json:"procs"`

	// EligibleGlobals lists the globals that are never aliased anywhere in
	// the program; the second phase may promote these intraprocedurally
	// when they are not web-promoted.
	EligibleGlobals []string `json:"eligibleGlobals,omitempty"`
}

// New returns an empty database.
func New() *Database {
	return &Database{Procs: make(map[string]*ProcDirectives)}
}

// Standard returns the directives for a procedure the analyzer knows
// nothing about: conventional linkage, nothing promoted.
func Standard(name string) *ProcDirectives {
	return &ProcDirectives{
		Name:   name,
		Caller: regs.StdCallerSaved(),
		Callee: regs.StdCalleeSaved(),
	}
}

// Lookup returns the directives for the named procedure, falling back to
// the standard convention.
func (db *Database) Lookup(name string) *ProcDirectives {
	if db != nil {
		if d, ok := db.Procs[name]; ok {
			return d
		}
	}
	return Standard(name)
}

// Validate checks the directives' register domains and consistency, the
// interference checks internal/verify makes that need no call graph:
// FREE, CALLEE and MSPILL hold only callee-saves registers and CALLER only
// allocatable ones; the four sets are disjoint; and promoted registers
// are distinct callee-saves registers outside every set.
func (d *ProcDirectives) Validate() error {
	calleeSaves := regs.StdCalleeSaved()
	sets := []struct {
		name      string
		s, domain regs.Set
	}{
		{"FREE", d.Free, calleeSaves},
		{"CALLER", d.Caller, calleeSaves.Union(regs.StdCallerSaved())},
		{"CALLEE", d.Callee, calleeSaves},
		{"MSPILL", d.MSpill, calleeSaves},
	}
	for i := range sets {
		if bad := sets[i].s.Minus(sets[i].domain); !bad.Empty() {
			return fmt.Errorf("%s: %s holds %s, outside %s", d.Name, sets[i].name, bad, sets[i].domain)
		}
		for j := i + 1; j < len(sets); j++ {
			if inter := sets[i].s.Intersect(sets[j].s); !inter.Empty() {
				return fmt.Errorf("%s: %s and %s overlap on %s", d.Name, sets[i].name, sets[j].name, inter)
			}
		}
	}
	var promoted regs.Set
	for _, p := range d.Promoted {
		switch {
		case !calleeSaves.Has(p.Reg):
			return fmt.Errorf("%s: %s promoted to r%d, not a callee-saves register", d.Name, p.Name, p.Reg)
		case promoted.Has(p.Reg):
			return fmt.Errorf("%s: two globals promoted to r%d", d.Name, p.Reg)
		}
		promoted = promoted.Add(p.Reg)
		for _, s := range sets {
			if s.s.Has(p.Reg) {
				return fmt.Errorf("%s: promoted register r%d for %s appears in %s", d.Name, p.Reg, p.Name, s.name)
			}
		}
	}
	return nil
}

// promotedLess is the canonical ordering of promotion lists: name-major,
// with web and register tiebreaks so the bytes stay canonical even for
// degenerate inputs (a variable promoted twice in one procedure).
func promotedLess(a, b *PromotedGlobal) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.WebID != b.WebID {
		return a.WebID < b.WebID
	}
	return a.Reg < b.Reg
}

// SortPromoted puts a promotion list into the canonical order
// CanonicalBytes serializes in. Producers that sort at construction time
// let every later encoding of the directives skip its defensive
// copy-and-sort.
func SortPromoted(ps []PromotedGlobal) {
	// Insertion sort: promotion lists hold at most a handful of entries
	// (bounded by the callee-saves set), and sort.Slice's reflection-based
	// swapper costs an allocation per call on a per-procedure hot path.
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && promotedLess(&ps[j], &ps[j-1]); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// CanonicalBytes returns a stable serialization of the directives: the
// JSON encoding with the Promoted list in canonical order. Two
// semantically identical directive sets always produce the same bytes, no
// matter what order the analyzer emitted the promotions in, so the bytes
// (and Hash over them) are safe to persist and compare across builds.
func (d *ProcDirectives) CanonicalBytes() []byte {
	cp := *d
	if len(d.Promoted) > 1 && !sort.SliceIsSorted(d.Promoted, func(i, j int) bool {
		return promotedLess(&d.Promoted[i], &d.Promoted[j])
	}) {
		cp.Promoted = append([]PromotedGlobal(nil), d.Promoted...)
		SortPromoted(cp.Promoted)
	}
	data, err := json.Marshal(&cp)
	if err != nil {
		// ProcDirectives contains only marshalable fields; a failure here
		// is a programming error, not an input condition.
		panic(fmt.Sprintf("pdb: canonical marshal %s: %v", d.Name, err))
	}
	return data
}

// EligibleHash fingerprints the program-wide intraprocedural promotion
// eligibility list (order-insensitive), as part of Hash.
func (db *Database) EligibleHash() string {
	sorted := append([]string(nil), db.EligibleGlobals...)
	sort.Strings(sorted)
	h := sha256.New()
	for _, g := range sorted {
		fmt.Fprintf(h, "%d:%s,", len(g), g)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// EligibleSet returns the eligibility list as the lookup set the
// optimizer and Keys consume.
func (db *Database) EligibleSet() map[string]bool {
	set := make(map[string]bool, len(db.EligibleGlobals))
	for _, g := range db.EligibleGlobals {
		set[g] = true
	}
	return set
}

// Hash fingerprints the whole database: every procedure's canonical
// directives, WebIDs included, plus the eligibility list. It is the
// database's content identity (the daemon's directive hash, the profile
// aggregator's stale-record guard, analyzer equality tests). Equal hashes
// imply identical phase-2 output, but not conversely: phase 2 reads far
// less than the whole database, and the build directory keys each module
// on exactly that (Keys).
func (db *Database) Hash() string {
	h := sha256.New()
	for _, name := range db.procNames() {
		b := db.Procs[name].CanonicalBytes()
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	fmt.Fprintf(h, "|eligible=%s", db.EligibleHash())
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// procNames lists the procedures with directives, sorted.
func (db *Database) procNames() []string {
	names := make([]string, 0, len(db.Procs))
	for name := range db.Procs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WriteFile serializes the database as JSON.
func WriteFile(path string, db *Database) error {
	data, err := json.MarshalIndent(db, "", " ")
	if err != nil {
		return fmt.Errorf("pdb: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadFile loads a database and checks every procedure's directives: each
// is filed under its own name and passes Validate, so phase 2 never
// compiles under directives the analyzer could not have emitted.
func ReadFile(path string) (*Database, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var db Database
	if err := json.Unmarshal(data, &db); err != nil {
		return nil, fmt.Errorf("pdb %s: %w", path, err)
	}
	if db.Procs == nil {
		db.Procs = make(map[string]*ProcDirectives)
	}
	for _, name := range db.procNames() {
		d := db.Procs[name]
		if d == nil || d.Name != name {
			return nil, fmt.Errorf("pdb %s: %s: the entry names another procedure or none", path, name)
		}
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("pdb %s: %w", path, err)
		}
	}
	return &db, nil
}
