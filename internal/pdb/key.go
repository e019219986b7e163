package pdb

import (
	"crypto/sha256"
	"encoding/binary"

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
// So each procedure has one key pair, the same for every module that
// reads it: its own key covers the first list, what a module that defines
// it reads, and its call key the second, what a module that calls it
// reads. A build computes the pair once per consulted procedure (Procs),
// and the module reads its own procedures' own keys and its direct
// callees' call keys; each module adds its eligibility key. Procs finds
// the consulted procedures in the summaries, which name all three sets:
// each module's procedures, each one's direct callees, and its globals in
// declaration order (summary.SummarizeModule records them from the same
// level-1 IR phase 2 starts from). A build that reuses a module's phase-1
// record therefore keys it without decoding the module's IR.
//
// No key covers a promotion's WebID (a program-wide sequence number that
// one web more or fewer renumbers), a directive's Name, or anything of a
// procedure the module neither defines nor calls. Equal keys of what a
// module reads, under two databases, mean byte-identical objects.
//
// The same holds per procedure. Phase 2 compiles each procedure alone: it
// reads the procedure's level-1 IR, the module's globals, the procedure's
// own directives, the clobber contracts of its direct callees and the
// eligibility of the globals it names, and no other procedure's IR or
// directives. So when a module's phase-1 record and eligibility key are
// unchanged, a procedure whose own key and whose direct callees' call
// keys (the ones its summary record lists) are unchanged compiles to the
// same code, and a build keeps that code from the module's previous object
// (incremental.Store.Diff marks the others stale). The eligibility key
// covers the whole module's globals, a superset of what the procedure
// alone reads, so the rule errs toward recompiling. TestPhase2KeySoundness
// checks both differentially, and fails when phase 2 starts reading
// something the keys omit: change the keys with the reads.

// A Key is a 16-byte SHA-256 prefix: a procedure's own key, or a module's
// eligibility key.
type Key [16]byte

// A CallKey is what a module that calls a procedure directly reads of its
// directives, as raw bytes: HasClobber, then ClobberAtCalls little-endian
// when HasClobber is set and zeros when it is not.
type CallKey [5]byte

// ProcKeys is one procedure's phase-2 key pair.
type ProcKeys struct {
	Own  Key
	Call CallKey
}

// Phase2Keys returns the key pair of d. The own key is hashed from a fixed
// binary layout of the fields a defining module reads.
func (d *ProcDirectives) Phase2Keys() ProcKeys {
	var buf [128]byte
	b := binary.AppendUvarint(buf[:0], uint64(len(d.Promoted)))
	for _, p := range d.Promoted {
		b = binary.AppendUvarint(b, uint64(len(p.Name)))
		b = append(b, p.Name...)
		b = append(b, p.Reg, bit(p.IsEntry)|bit(p.NeedStore)<<1)
	}
	for _, s := range [...]regs.Set{d.Free, d.Caller, d.Callee, d.MSpill} {
		b = binary.LittleEndian.AppendUint32(b, uint32(s))
	}
	b = append(b, bit(d.IsClusterRoot))
	sum := sha256.Sum256(b)
	k := ProcKeys{Own: Key(sum[:16]), Call: CallKey{bit(d.HasClobber)}}
	if d.HasClobber {
		binary.LittleEndian.PutUint32(k.Call[1:], uint32(d.ClobberAtCalls))
	}
	return k
}

// Keys computes phase-2 keys under one database, for one goroutine at a
// time.
type Keys struct {
	db       *Database
	eligible map[string]bool
	buf      []byte // Eligibility's layout, reused across modules
}

// NewKeys returns the key computer for db.
func NewKeys(db *Database) *Keys {
	return &Keys{db: db, eligible: db.EligibleSet()}
}

// Eligibility returns the key of the eligibility of the declared globals,
// in declaration order.
func (k *Keys) Eligibility(globals []summary.GlobalInfo) Key {
	b := k.buf[:0]
	for _, g := range globals {
		b = binary.AppendUvarint(b, uint64(len(g.Name)))
		b = append(b, g.Name...)
		b = append(b, bit(k.eligible[g.Name]))
	}
	k.buf = b
	sum := sha256.Sum256(b)
	return Key(sum[:16])
}

// Procs returns the key pair of every procedure whose directives the phase
// 2 of a module sums summarizes may read: the module's own procedures, and
// the direct callees its summary records. The summary describes the
// phase-1 artifact, level-1 IR that phase 2 starts from, and records every
// direct call in it; phase 2's optimization only ever removes calls, so
// this is a sound superset of what phase 2 actually reads.
func (k *Keys) Procs(sums []*summary.ModuleSummary) map[string]ProcKeys {
	n := 0
	for _, ms := range sums {
		n += len(ms.Procs)
	}
	procs := make(map[string]ProcKeys, n)
	for _, ms := range sums {
		for i := range ms.Procs {
			name := ms.Procs[i].Name
			procs[name] = k.db.Lookup(name).Phase2Keys()
		}
	}
	// A callee no module defines (a runtime routine) still has a pair.
	for _, ms := range sums {
		for i := range ms.Procs {
			for _, c := range ms.Procs[i].Calls {
				if _, ok := procs[c.Callee]; !ok {
					procs[c.Callee] = k.db.Lookup(c.Callee).Phase2Keys()
				}
			}
		}
	}
	return procs
}

func bit(b bool) byte {
	if b {
		return 1
	}
	return 0
}
