// Package incremental is the build directory of the two-pass organization
// (§2, §4.3 of the paper): the persistent state that lets a build
// recompile only what changed.
//
// The paper's scheme pays for cross-module allocation with recompilation:
// whenever the program database changes, the compiler second phase must
// re-run. But phase 2 is module-at-a-time and order-independent, and each
// module reads only a small slice of the database, which pdb's phase-2
// keys name exactly: its own procedures' directives without WebIDs, its
// direct callees' clobber sets, and the eligibility of the globals it
// declares. A build against a Store makes the edit-recompile loop
// proportional to what changed:
//
//	hash sources            → phase-1-recompile only changed modules; a
//	                          recompiled module whose record encodes
//	                          byte-equal to the stored one (a comment
//	                          edit, or its revert) counts as unchanged
//	re-run the analyzer     → always, whole: it reads every summary
//	diff the database       → the key pair of every consulted procedure
//	                          against the stored table, once; then each
//	                          module's own and callee keys and its
//	                          eligibility key against the moves
//	phase-2-recompile       → only modules whose phase-1 record or
//	                          phase-2 keys changed; of a module whose
//	                          keys alone moved, only the procedures that
//	                          read a moved key, the rest taken from its
//	                          stored object
//	relink                  → from stored + fresh objects
//
// The build driver (ipra.Build) runs those stages and asks the Store at
// each one what it may reuse; this package owns only the directory: the
// manifest, the artifact files (phase-1 records and objects), the key
// diff, and the explanation of every decision.
// A build without a directory runs the same stages against a nil *Store.
//
// The load-bearing invariant: a build against a store produces the same
// modules, summaries, database, objects, and executable as a store-less
// build of the same sources — reuse is pure memoization, never
// approximation.
package incremental

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"

	"ipra/internal/cache"
	"ipra/internal/core"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/summary"
	"ipra/internal/telemetry"
)

// Action records what one build did for one module and why.
type Action struct {
	Module        string
	Phase1Rebuilt bool
	Phase1Reason  string // why phase 1 re-ran; "" when reused
	// Phase1Unchanged marks a phase-1 re-run whose record encoded
	// byte-equal to the stored one: its phase 2 is decided by the key diff
	// alone.
	Phase1Unchanged bool
	Phase2Rebuilt   bool
	Phase2Reason    string // why phase 2 re-ran; "" when reused
	// Procs counts the module's procedures, and ProcsRecompiled those its
	// phase 2 compiled: none when the stored object was reused, every one
	// when phase 2 re-ran whole, and the stale ones when only the keys of
	// some procedures moved (the rest keep their stored code).
	Procs, ProcsRecompiled int
}

// Outcome is the rebuild record of one build against a store.
type Outcome struct {
	Actions                        []Action
	Phase1Rebuilds, Phase2Rebuilds int
	// Phase1Unchanged counts the phase-1 rebuilds whose record came out
	// byte-equal to the stored one.
	Phase1Unchanged int
	// ProcsRecompiled and ProcsReused split the procedures of the
	// phase-2-recompiled modules into those phase 2 compiled and those
	// whose stored code it kept.
	ProcsRecompiled, ProcsReused int
	// Analyzer is always nil: the analyzer re-runs whole on every build
	// and reuses nothing. The benchmark module reads the field; it stays
	// until that read goes.
	Analyzer *core.ReuseStats
	// StateReset is true when an existing build directory's state was
	// rejected (format/toolchain fingerprint mismatch or corruption).
	StateReset bool
}

// ReusePhase1 returns the summary of module i's stored phase-1 record when
// its source is unchanged: when key, the module's cache.SourceKey under
// the toolchain fingerprint the store was opened with, matches the stored
// source hash, and the record's bytes match the name the manifest holds.
// It decodes the summary alone, which is all the analyzer and the key
// diff read, and keeps the verified bytes for Module, should the module's
// phase 2 re-run. Otherwise it records why phase 1 must re-run (an
// invalidate-phase1 event on the context's tracer) and returns false; the
// caller compiles the module.
func (s *Store) ReusePhase1(ctx context.Context, i int, key cache.Key) (*summary.ModuleSummary, bool) {
	if s == nil {
		return nil, false
	}
	a := &s.out.Actions[i]
	hash := key.Hex()
	s.next[i].SourceHash = hash
	reason := ""
	prev := s.prev.Modules[a.Module]
	switch {
	case prev == nil:
		reason = s.resetReason
		if reason == "" {
			reason = "new module"
		}
	case prev.SourceHash != hash:
		reason = sourceChanged
	default:
		data, err := s.read(prev.Phase1File, "p1", a.Module)
		var ms *summary.ModuleSummary
		if err == nil {
			ms, err = cache.DecodeSummary(data)
		}
		if err == nil {
			s.next[i].Phase1File, s.records[i] = prev.Phase1File, data
			return ms, true
		}
		reason = "stored phase-1 record unreadable"
	}
	ev := telemetry.Event(ctx, "invalidate-phase1")
	ev.SetStr("module", a.Module)
	ev.SetStr("reason", reason)
	ev.End()
	if s.out.StateReset {
		// The event keeps the cause for traces; explain prints it once,
		// above module lines that say only this.
		reason = "state reset"
	}
	a.Phase1Rebuilt, a.Phase1Reason = true, reason
	return nil, false
}

// sourceChanged is the phase-1 reason of an edited module: the only one
// whose fresh record may still be the stored one.
const sourceChanged = "source changed"

// SetPhase1 takes module i's freshly compiled phase-1 record, the bytes
// cache.EncodeEntry gives it, and names them by their content; Persist
// writes them as they are. When an edited module's record gets the name
// the stored manifest holds, the record is byte-equal to the stored one
// (a comment edit, or the revert of one) and the module is
// phase-1-unchanged (a phase1-unchanged event on the context's tracer):
// its phase 2 is decided by the key diff alone, and its stored record is
// kept.
func (s *Store) SetPhase1(ctx context.Context, i int, data []byte) {
	if s == nil {
		return
	}
	a, next := &s.out.Actions[i], &s.next[i]
	next.Phase1File, s.records[i] = artifactFile("p1", a.Module, data), data
	if prev := s.prev.Modules[a.Module]; prev != nil && a.Phase1Reason == sourceChanged && prev.Phase1File == next.Phase1File {
		a.Phase1Unchanged = true
		ev := telemetry.Event(ctx, "phase1-unchanged")
		ev.SetStr("module", a.Module)
		ev.End()
	}
}

// Diff decides phase 2 for every module: a module recompiles when its
// phase-1 record changed, or when one of its phase-2 keys differs from the
// stored one: its eligibility key, or a key of a procedure its summary
// names (movedProcs). pdb.Keys computes each consulted procedure's key
// pair once for the whole program. A module whose phase-1 record and
// eligibility key are unchanged recompiles only its stale procedures
// (staleProcs): a procedure's phase 2 reads nothing of the database but
// what its own key, its direct callees' keys and the eligibility key
// cover. Each decision the diff alone discovers is recorded as an
// invalidate-phase2 event.
func (s *Store) Diff(ctx context.Context, sums []*summary.ModuleSummary, db *pdb.Database) {
	if s == nil {
		return
	}
	keys := pdb.NewKeys(db)
	s.procs = keys.Procs(sums)
	moves := keyMoves(s.prev.Procs, s.procs)
	for i, ms := range sums {
		next, a := &s.next[i], &s.out.Actions[i]
		next.Eligibility = keys.Eligibility(ms.Globals)
		a.Procs = len(ms.Procs)
		if a.Phase1Rebuilt && !a.Phase1Unchanged {
			a.Phase2Rebuilt, a.Phase2Reason = true, a.Phase1Reason
			a.ProcsRecompiled = a.Procs
			continue
		}
		prev := s.prev.Modules[a.Module]
		reason := ""
		if prev.Eligibility != next.Eligibility {
			reason = "eligible globals changed"
			a.ProcsRecompiled = a.Procs
		} else if moved := movedProcs(ms, moves); len(moved) > 0 {
			reason = "directives changed: " + strings.Join(moved, ", ")
			s.stale[i], a.ProcsRecompiled = staleProcs(ms, moved)
		}
		if reason != "" {
			a.Phase2Rebuilt, a.Phase2Reason = true, reason
			ev := telemetry.Event(ctx, "invalidate-phase2")
			ev.SetStr("module", a.Module)
			ev.SetStr("reason", reason)
			ev.End()
		}
	}
	s.sums = sums
}

// moves says which halves of a procedure's key pair moved since the
// previous build.
type moves uint8

const (
	ownMoved moves = 1 << iota
	callMoved
)

// keyMoves compares the key pair of every procedure in cur, the build's
// table, with prev, the stored one, and returns the moves of those whose
// pair moved. A procedure prev lacks moved both halves. It walks prev,
// which the manifest decode left in one piece of memory, and looks up cur,
// which the build just filled.
func keyMoves(prev, cur map[string]pdb.ProcKeys) map[string]moves {
	out := make(map[string]moves)
	found := 0
	for name, p := range prev {
		k, ok := cur[name]
		if !ok {
			continue // no module consults it any more
		}
		found++
		var m moves
		if p.Own != k.Own {
			m |= ownMoved
		}
		if p.Call != k.Call {
			m |= callMoved
		}
		if m != 0 {
			out[name] = m
		}
	}
	if found < len(cur) {
		for name := range cur {
			if _, ok := prev[name]; !ok {
				out[name] = ownMoved | callMoved
			}
		}
	}
	return out
}

// movedProcs returns the sorted names of the procedures whose keys the
// module ms summarizes reads and which moved (keyMoves): a procedure it
// defines whose own key moved, and a procedure it calls directly (itself
// included) whose call key moved.
func movedProcs(ms *summary.ModuleSummary, moved map[string]moves) []string {
	if len(moved) == 0 {
		return nil
	}
	var names []string
	for j := range ms.Procs {
		p := &ms.Procs[j]
		if moved[p.Name]&ownMoved != 0 {
			names = append(names, p.Name)
		}
		for _, c := range p.Calls {
			if moved[c.Callee]&callMoved != 0 {
				names = append(names, c.Callee)
			}
		}
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// staleProcs marks, in summary order, the procedures of the module ms
// summarizes whose phase 2 reads a key that moved, and counts them: those
// whose own key changed, and those whose summary records a direct call to
// a procedure whose key changed. changed names the moved keys.
func staleProcs(ms *summary.ModuleSummary, changed []string) (stale []bool, n int) {
	moved := make(map[string]bool, len(changed))
	for _, name := range changed {
		moved[name] = true
	}
	stale = make([]bool, len(ms.Procs))
	for j := range ms.Procs {
		p := &ms.Procs[j]
		stale[j] = moved[p.Name]
		for _, c := range p.Calls {
			stale[j] = stale[j] || moved[c.Callee]
		}
		if stale[j] {
			n++
		}
	}
	return stale, n
}

// ReuseObject returns what module i's phase 2 may take from the module's
// stored object. When Diff left the module's phase 2 valid it is the
// object itself, and phase 2 compiles nothing. When Diff found only
// procedure keys moved it is keep: the stored code of each procedure in
// module order, nil for the stale ones, which phase 2 compiles. Otherwise
// both are nil and phase 2 compiles every procedure; so also when the
// stored object does not read back as the bytes its name vouches for, or
// does not hold the module's procedures in order, which the record names
// as "stored object unreadable".
func (s *Store) ReuseObject(i int) (obj *parv.Object, keep []*parv.ObjFunc) {
	if s == nil {
		return nil, nil
	}
	a := &s.out.Actions[i]
	stale := s.stale[i]
	if a.Phase2Rebuilt && stale == nil {
		return nil, nil
	}
	data, err := s.read(s.prev.Modules[a.Module].ObjectFile, "obj", a.Module)
	if err == nil {
		obj, err = parv.DecodeObject(data)
	}
	if err == nil && stale != nil && !sameProcs(obj, s.sums[i]) {
		err = fmt.Errorf("incremental: %s: stored object does not match the phase-1 record", a.Module)
	}
	switch {
	case err != nil && !a.Phase2Rebuilt:
		a.Phase2Rebuilt, a.Phase2Reason = true, "stored object unreadable"
	case err != nil:
		a.Phase2Reason += "; stored object unreadable"
	case stale == nil:
		return obj, nil
	default:
		keep = obj.Funcs
		for j := range keep {
			if stale[j] {
				keep[j] = nil
			}
		}
		return nil, keep
	}
	a.ProcsRecompiled = a.Procs
	return nil, nil
}

// sameProcs reports whether obj holds the code of exactly the procedures
// ms summarizes, in order.
func sameProcs(obj *parv.Object, ms *summary.ModuleSummary) bool {
	if len(obj.Funcs) != len(ms.Procs) {
		return false
	}
	for j, f := range obj.Funcs {
		if f.Name != ms.Procs[j].Name {
			return false
		}
	}
	return true
}

// Outcome tallies the build's rebuild record, adds the totals to the
// tracer's counters (incremental.phase1_rebuilds, ..._reused and
// ..._unchanged, the phase-2 pair, and incremental.phase2_procs_recompiled
// and ..._reused over the phase-2-recompiled modules), and, when w is
// non-nil, writes one line per module explaining why it was or wasn't
// rebuilt.
func (s *Store) Outcome(ctx context.Context, w io.Writer) *Outcome {
	out := &s.out
	for _, a := range out.Actions {
		if a.Phase1Rebuilt {
			out.Phase1Rebuilds++
		}
		if a.Phase1Unchanged {
			out.Phase1Unchanged++
		}
		if a.Phase2Rebuilt {
			out.Phase2Rebuilds++
			out.ProcsRecompiled += a.ProcsRecompiled
			out.ProcsReused += a.Procs - a.ProcsRecompiled
		}
	}
	n := int64(len(out.Actions))
	telemetry.Count(ctx, "incremental.phase1_rebuilds", int64(out.Phase1Rebuilds))
	telemetry.Count(ctx, "incremental.phase1_reused", n-int64(out.Phase1Rebuilds))
	telemetry.Count(ctx, "incremental.phase1_unchanged", int64(out.Phase1Unchanged))
	telemetry.Count(ctx, "incremental.phase2_rebuilds", int64(out.Phase2Rebuilds))
	telemetry.Count(ctx, "incremental.phase2_reused", n-int64(out.Phase2Rebuilds))
	telemetry.Count(ctx, "incremental.phase2_procs_recompiled", int64(out.ProcsRecompiled))
	telemetry.Count(ctx, "incremental.phase2_procs_reused", int64(out.ProcsReused))
	if out.StateReset {
		telemetry.Count(ctx, "incremental.state_resets", 1)
	}
	if w != nil {
		explain(w, s.resetReason, out)
	}
	return out
}

// explain writes the per-module rebuild record in module order, preceded
// by a state-reset notice when stored state was discarded.
func explain(w io.Writer, resetReason string, out *Outcome) {
	if out.StateReset {
		fmt.Fprintf(w, "incremental: discarding build state: %s\n", resetReason)
	}
	phase := func(rebuilt bool, reason string) string {
		if !rebuilt {
			return "reused"
		}
		return "recompiled (" + reason + ")"
	}
	for _, a := range out.Actions {
		p1 := phase(a.Phase1Rebuilt, a.Phase1Reason)
		if a.Phase1Unchanged {
			p1 += ", record unchanged"
		}
		p2 := phase(a.Phase2Rebuilt, a.Phase2Reason)
		if a.Phase2Rebuilt && a.ProcsRecompiled < a.Procs {
			p2 += fmt.Sprintf(", %d/%d procedures", a.ProcsRecompiled, a.Procs)
		}
		fmt.Fprintf(w, "incremental: %s: phase 1 %s; phase 2 %s\n", a.Module, p1, p2)
	}
	fmt.Fprintf(w, "incremental: %d/%d phase-1 recompiles, %d/%d phase-2 recompiles\n",
		out.Phase1Rebuilds, len(out.Actions), out.Phase2Rebuilds, len(out.Actions))
}
