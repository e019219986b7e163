package pdb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"ipra/internal/regs"
	"ipra/internal/summary"
)

// Phase-2 keys: what one module's compiler second phase reads of the
// database, and nothing more. Phase 2 (per procedure, ipra's optimizeFunc,
// then codegen.CompileFunc; codegen.Data reads no directive) reads:
//
//   - of each procedure the module defines: the promotion list, each
//     entry's Name, Reg, IsEntry and NeedStore, in list order; the FREE,
//     CALLER, CALLEE and MSPILL sets; and IsClusterRoot;
//   - of each procedure the module calls directly: HasClobber and, when it
//     is set, ClobberAtCalls (codegen's clobberOf);
//   - the eligibility of each global the module declares. Module.Globals
//     lists every global, defined or extern, that the module's code can
//     name, and the optimizer reads eligibility only of named globals.
//
// The keys are computed from the module's summary, which names all three
// sets: its procedures, each one's direct callees, and its globals in
// declaration order (summary.SummarizeModule records them from the same
// level-1 IR phase 2 starts from). A build that reuses a module's phase-1
// record therefore keys it without decoding the module's IR.
//
// It never reads a promotion's WebID (a program-wide sequence number that
// one web more or fewer renumbers), a directive's Name, or anything of a
// procedure the module neither defines nor calls. A module's key is one
// Phase2Key per procedure Consulted names plus its eligibility key; equal
// keys under two databases mean byte-identical objects.
//
// The same holds per procedure. Phase 2 compiles each procedure alone: it
// reads the procedure's level-1 IR, the module's globals, the procedure's
// own directives, the clobber contracts of its direct callees and the
// eligibility of the globals it names, and no other procedure's IR or
// directives. So when a module's phase-1 record and eligibility key are
// unchanged, a procedure whose own key and whose direct callees' keys
// (the ones its summary record lists) are unchanged compiles to the same
// code, and a build keeps that code from the module's previous object
// (incremental.Store.Diff marks the others stale). A procedure's key in
// the module's set covers its Use in the whole module, a superset of what
// the procedure alone reads, so the rule errs toward recompiling.
// TestPhase2KeySoundness checks both differentially, and fails when phase
// 2 starts reading something the keys omit: change the keys with the
// reads.

// Use says which of a procedure's directives one module's phase 2 reads.
type Use uint8

const (
	// UseOwn: the module defines the procedure.
	UseOwn Use = 1 << iota
	// UseCall: the module calls the procedure directly.
	UseCall
)

// Consulted returns every procedure whose directives the phase 2 of the
// module ms summarizes may read, and how: its own procedures, and the
// direct callees its summary records. The summary describes the phase-1
// artifact, level-1 IR that phase 2 starts from, and records every direct
// call in it; phase 2's optimization only ever removes calls, so this is a
// sound superset of what phase 2 actually reads.
func Consulted(ms *summary.ModuleSummary) map[string]Use {
	uses := make(map[string]Use)
	for i := range ms.Procs {
		p := &ms.Procs[i]
		uses[p.Name] |= UseOwn
		for _, c := range p.Calls {
			uses[c.Callee] |= UseCall
		}
	}
	return uses
}

// Phase2Key returns the key of what a module's phase 2 reads of d under
// use u, hashed from a fixed binary layout that starts with u.
func (d *ProcDirectives) Phase2Key(u Use) string {
	var buf [128]byte
	b := append(buf[:0], byte(u))
	if u&UseOwn != 0 {
		b = binary.AppendUvarint(b, uint64(len(d.Promoted)))
		for _, p := range d.Promoted {
			b = binary.AppendUvarint(b, uint64(len(p.Name)))
			b = append(b, p.Name...)
			b = append(b, p.Reg, bit(p.IsEntry)|bit(p.NeedStore)<<1)
		}
		for _, s := range [...]regs.Set{d.Free, d.Caller, d.Callee, d.MSpill} {
			b = binary.LittleEndian.AppendUint32(b, uint32(s))
		}
		b = append(b, bit(d.IsClusterRoot))
	}
	if u&UseCall != 0 {
		b = append(b, bit(d.HasClobber))
		if d.HasClobber {
			b = binary.LittleEndian.AppendUint32(b, uint32(d.ClobberAtCalls))
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// Keys computes phase-2 keys under one database.
type Keys struct {
	db       *Database
	eligible map[string]bool
}

// NewKeys returns the key computer for db.
func NewKeys(db *Database) *Keys {
	return &Keys{db: db, eligible: db.EligibleSet()}
}

// Eligibility returns the key of the eligibility of the declared globals,
// in declaration order.
func (k *Keys) Eligibility(globals []summary.GlobalInfo) string {
	h := sha256.New()
	var buf [64]byte
	for _, g := range globals {
		b := binary.AppendUvarint(buf[:0], uint64(len(g.Name)))
		b = append(b, g.Name...)
		h.Write(append(b, bit(k.eligible[g.Name])))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Module returns the whole key of the module ms summarizes: its
// eligibility key and one key per consulted procedure.
func (k *Keys) Module(ms *summary.ModuleSummary) (eligibility string, procs map[string]string) {
	consulted := Consulted(ms)
	procs = make(map[string]string, len(consulted))
	for name, u := range consulted {
		procs[name] = k.db.Lookup(name).Phase2Key(u)
	}
	return k.Eligibility(ms.Globals), procs
}

func bit(b bool) byte {
	if b {
		return 1
	}
	return 0
}
