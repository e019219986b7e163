// Package verify is an independent, from-first-principles checker of the
// paper's register allocation invariants. It takes the program analyzer's
// three outputs — the call graph, the per-procedure reference sets, and
// the program database of directives — and re-derives, by its own
// dataflow analyses, whether the directives are safe to hand to the
// compiler second phase.
//
// The checker deliberately shares no code with the construction logic in
// internal/webs and internal/clusters (it never calls their Validate or
// construction functions), so it cannot inherit their bugs: everything is
// recomputed from the paper's statements of the invariants (§4.1–§4.3,
// §7.6.2) over the raw graph and directive data.
//
// Five invariant classes are checked, each reported under its own Class
// tag:
//
//   - webs: per-variable web structure — node-sets disjoint (no variable
//     promoted twice in one procedure), one register and one NeedStore
//     policy per web, entries predecessor-free within the web, the web
//     closed under call chains that reference the variable, and a
//     must-reach dataflow proving every non-entry member only executes
//     with the variable already loaded into its register.
//   - interference: no two webs share a register where their regions
//     overlap (no procedure promotes two globals to one register), every
//     promotion register is callee-saved, and promoted registers appear
//     in no usage set.
//   - clusters: MSPILL obligations only at cluster roots, and every FREE
//     (or post-pass CALLER) callee-saves register is covered by a
//     dominating cluster root that spills it — the single-root,
//     predecessor-closed shape of §4.2.1.
//   - call-edges: the four usage sets partition safely at every call
//     edge — a greatest-fixpoint "available" dataflow proves no register
//     is free to clobber upstream while holding a value downstream, and
//     a least-fixpoint clobber closure proves ClobberAtCalls (§7.6.2)
//     over-approximates everything a call may actually destroy.
//   - hashes: the directives phase 2 consumes are byte-stable — the
//     canonical encoding is a decode fixpoint and is insensitive to
//     promotion order, and the database and call graph
//     agree on exactly which procedures are compiled.
package verify

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"ipra/internal/callgraph"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/refsets"
	"ipra/internal/regs"
)

// Invariant classes (Violation.Class values).
const (
	ClassWebs         = "webs"
	ClassInterference = "interference"
	ClassClusters     = "clusters"
	ClassCallEdges    = "call-edges"
	ClassHashes       = "hashes"
)

// Violation is one invariant breach.
type Violation struct {
	// Class is the invariant class (one of the Class* constants).
	Class string
	// Proc names the procedure the violation anchors to ("" for
	// database-wide breaches).
	Proc string
	// Detail describes the breach.
	Detail string
}

func (v Violation) String() string {
	if v.Proc == "" {
		return fmt.Sprintf("[%s] %s", v.Class, v.Detail)
	}
	return fmt.Sprintf("[%s] %s: %s", v.Class, v.Proc, v.Detail)
}

// Check validates every invariant class over one analysis result and
// returns the violations found (nil when the database is consistent).
// sets may be nil, in which case the web-closure checks that need
// L_REF/C_REF are skipped. The order of the returned violations is
// deterministic for a given input.
func Check(g *callgraph.Graph, sets *refsets.Sets, db *pdb.Database) []Violation {
	c := &checker{g: g, sets: sets, db: db}
	c.dirs = make([]*pdb.ProcDirectives, len(g.Nodes))
	for _, nd := range g.Nodes {
		if nd.Rec != nil {
			c.dirs[nd.ID] = db.Procs[nd.Name]
		}
	}
	c.eligible = make(map[string]bool, len(db.EligibleGlobals))
	for _, v := range db.EligibleGlobals {
		c.eligible[v] = true
	}
	c.checkDatabase()
	webs := c.collectWebs()
	c.checkWebs(webs)
	c.checkInterference()
	c.checkClusters()
	c.checkCallEdges()
	return c.out
}

type checker struct {
	g        *callgraph.Graph
	sets     *refsets.Sets
	db       *pdb.Database
	dirs     []*pdb.ProcDirectives // node ID -> directives (nil when absent)
	eligible map[string]bool
	out      []Violation
}

func (c *checker) violate(class, proc, format string, args ...any) {
	c.out = append(c.out, Violation{Class: class, Proc: proc, Detail: fmt.Sprintf(format, args...)})
}

// promotedRegs returns the registers holding promoted globals in d.
func promotedRegs(d *pdb.ProcDirectives) regs.Set {
	var s regs.Set
	for _, p := range d.Promoted {
		s = s.Add(p.Reg)
	}
	return s
}

// ----------------------------------------------------------------------------
// Class 5: hashes — byte-stability and database/graph agreement.

func (c *checker) checkDatabase() {
	names := make([]string, 0, len(c.db.Procs))
	for name := range c.db.Procs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := c.db.Procs[name]
		if d == nil {
			c.violate(ClassHashes, name, "nil directives stored in the database")
			continue
		}
		if d.Name != name {
			c.violate(ClassHashes, name, "directives stored under key %q carry name %q", name, d.Name)
		}
		nd := c.g.NodeByName(name)
		switch {
		case nd == nil:
			c.violate(ClassHashes, name, "directives for a procedure absent from the call graph")
		case nd.Rec == nil:
			c.violate(ClassHashes, name, "directives for an external (uncompiled) procedure")
		}
		// The canonical encoding must be a decode fixpoint: the database
		// travels as JSON (ipra-analyze -o, mcc -phase2 -pdb), and
		// Database.Hash is taken over the encoding.
		b := d.CanonicalBytes()
		var rt pdb.ProcDirectives
		if err := json.Unmarshal(b, &rt); err != nil {
			c.violate(ClassHashes, name, "canonical bytes do not decode: %v", err)
		} else if !bytes.Equal(rt.CanonicalBytes(), b) {
			c.violate(ClassHashes, name, "canonical encoding is not a decode fixpoint")
		}
		// The canonical encoding must not depend on the order the analyzer
		// emitted the promotions in.
		if len(d.Promoted) > 1 {
			perm := *d
			perm.Promoted = make([]pdb.PromotedGlobal, len(d.Promoted))
			for i, p := range d.Promoted {
				perm.Promoted[len(d.Promoted)-1-i] = p
			}
			if !bytes.Equal(perm.CanonicalBytes(), b) {
				c.violate(ClassHashes, name, "canonical encoding depends on promotion order")
			}
		}
	}
	for _, nd := range c.g.Nodes {
		if nd.Rec != nil && c.dirs[nd.ID] == nil {
			c.violate(ClassHashes, nd.Name, "compiled procedure missing from the database")
		}
	}
	for i := 1; i < len(c.db.EligibleGlobals); i++ {
		if c.db.EligibleGlobals[i-1] >= c.db.EligibleGlobals[i] {
			c.violate(ClassHashes, "", "EligibleGlobals not sorted and unique at %q", c.db.EligibleGlobals[i])
			break
		}
	}
}

// ----------------------------------------------------------------------------
// Class 1: webs — reconstructed purely from the directives.

type webKey struct {
	Var string
	ID  int
}

type webInfo struct {
	key     webKey
	members []int                       // node IDs, ascending
	promo   map[int]*pdb.PromotedGlobal // node ID -> its promotion entry
}

// collectWebs groups the per-procedure promotion entries back into webs,
// flagging per-procedure duplicates (web node-sets of one variable must be
// pairwise disjoint, so a procedure may promote a variable at most once).
func (c *checker) collectWebs() []*webInfo {
	byKey := make(map[webKey]*webInfo)
	var keys []webKey
	for _, nd := range c.g.Nodes {
		d := c.dirs[nd.ID]
		if d == nil {
			continue
		}
		seenVar := make(map[string]bool, len(d.Promoted))
		for i := range d.Promoted {
			p := &d.Promoted[i]
			if seenVar[p.Name] {
				c.violate(ClassWebs, nd.Name, "variable %s promoted twice (overlapping webs)", p.Name)
				continue
			}
			seenVar[p.Name] = true
			if !c.eligible[p.Name] {
				c.violate(ClassWebs, nd.Name, "promoted variable %s is not in EligibleGlobals", p.Name)
			}
			k := webKey{Var: p.Name, ID: p.WebID}
			w := byKey[k]
			if w == nil {
				w = &webInfo{key: k, promo: make(map[int]*pdb.PromotedGlobal)}
				byKey[k] = w
				keys = append(keys, k)
			}
			w.members = append(w.members, nd.ID)
			w.promo[nd.ID] = p
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Var != keys[j].Var {
			return keys[i].Var < keys[j].Var
		}
		return keys[i].ID < keys[j].ID
	})
	out := make([]*webInfo, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}

func (c *checker) checkWebs(webs []*webInfo) {
	for _, w := range webs {
		c.checkWebStructure(w)
		c.checkWebLoaded(w)
	}
}

// checkWebStructure validates one web's register consistency, entry
// shape, store policy, and call-chain closure.
func (c *checker) checkWebStructure(w *webInfo) {
	first := w.promo[w.members[0]]
	entries := 0
	anyWrites := false
	for _, id := range w.members {
		nd := c.g.Nodes[id]
		p := w.promo[id]
		if p.Reg != first.Reg {
			c.violate(ClassWebs, nd.Name, "web %d of %s promotes to r%d here but r%d at %s",
				w.key.ID, w.key.Var, p.Reg, first.Reg, c.g.Nodes[w.members[0]].Name)
		}
		if p.NeedStore != first.NeedStore {
			c.violate(ClassWebs, nd.Name, "web %d of %s disagrees on NeedStore with %s",
				w.key.ID, w.key.Var, c.g.Nodes[w.members[0]].Name)
		}
		internalPreds := 0
		for _, e := range nd.In {
			if _, ok := w.promo[e.From]; ok {
				internalPreds++
			}
		}
		if p.IsEntry {
			entries++
			if internalPreds > 0 {
				c.violate(ClassWebs, nd.Name, "web %d of %s: entry procedure has a predecessor inside the web",
					w.key.ID, w.key.Var)
			}
		} else if internalPreds == 0 {
			c.violate(ClassWebs, nd.Name, "web %d of %s: non-entry member has no predecessor inside the web",
				w.key.ID, w.key.Var)
		}
		// Closure: a member may not call outside the web into a chain that
		// still references the variable — those procedures would read the
		// (stale) memory copy.
		if c.sets != nil {
			if vi, ok := c.sets.Index[w.key.Var]; ok {
				for _, e := range nd.Out {
					if _, in := w.promo[e.To]; in {
						continue
					}
					if c.sets.LRef[e.To].Has(vi) || c.sets.CRef[e.To].Has(vi) {
						c.violate(ClassWebs, nd.Name, "web %d of %s: calls %s, which reaches a reference to %s outside the web",
							w.key.ID, w.key.Var, c.g.Nodes[e.To].Name, w.key.Var)
					}
				}
			}
		}
		if nd.Rec != nil {
			for _, gr := range nd.Rec.GlobalRefs {
				if gr.Name == w.key.Var && gr.Writes > 0 {
					anyWrites = true
				}
			}
		}
	}
	if entries == 0 {
		c.violate(ClassWebs, c.g.Nodes[w.members[0]].Name,
			"web %d of %s has no entry procedure (nowhere to insert the load)", w.key.ID, w.key.Var)
	}
	if anyWrites && !first.NeedStore {
		c.violate(ClassWebs, c.g.Nodes[w.members[0]].Name,
			"web %d of %s: a member writes the variable but NeedStore is false (store would be lost)",
			w.key.ID, w.key.Var)
	}
}

// checkWebLoaded runs a must-reach dataflow per web: loaded(P) means the
// variable is guaranteed to sit in the web register whenever control
// reaches P from any start. Entries establish it (they load at entry);
// compiled procedures outside the web destroy it (nothing maintains the
// register); record-less nodes pass their input through (they cannot be
// entries, and a record-less start — unknown external code — establishes
// nothing). Greatest fixpoint, so unreachable cycles stay vacuously true.
func (c *checker) checkWebLoaded(w *webInfo) {
	n := len(c.g.Nodes)
	loaded := make([]bool, n)
	for i := range loaded {
		loaded[i] = true
	}
	andPreds := func(nd *callgraph.Node) bool {
		if len(nd.In) == 0 {
			return false
		}
		for _, e := range nd.In {
			if !loaded[e.From] {
				return false
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, nd := range c.g.Nodes {
			var v bool
			switch p := w.promo[nd.ID]; {
			case p != nil && p.IsEntry:
				v = true
			case p != nil:
				v = andPreds(nd)
			case nd.Rec == nil:
				v = andPreds(nd)
			default:
				v = false
			}
			if v != loaded[nd.ID] {
				loaded[nd.ID] = v
				changed = true
			}
		}
	}
	for _, id := range w.members {
		p := w.promo[id]
		if p.IsEntry {
			continue
		}
		if !loaded[id] {
			c.violate(ClassWebs, c.g.Nodes[id].Name,
				"web %d of %s: non-entry member may be reached without %s loaded into r%d",
				w.key.ID, w.key.Var, w.key.Var, p.Reg)
		}
	}
}

// ----------------------------------------------------------------------------
// Class 2: interference — register-level consistency at every node.

func (c *checker) checkInterference() {
	stdCallee := regs.StdCalleeSaved()
	stdCaller := regs.StdCallerSaved()
	for _, nd := range c.g.Nodes {
		d := c.dirs[nd.ID]
		if d == nil {
			continue
		}
		seen := make(map[uint8]string, len(d.Promoted))
		for _, p := range d.Promoted {
			if prev, ok := seen[p.Reg]; ok {
				c.violate(ClassInterference, nd.Name,
					"globals %s and %s both promoted to r%d (interfering webs share a register)", prev, p.Name, p.Reg)
			} else {
				seen[p.Reg] = p.Name
			}
			if !stdCallee.Has(p.Reg) {
				c.violate(ClassInterference, nd.Name, "global %s promoted to non-callee-saved r%d", p.Name, p.Reg)
			}
			for _, s := range []struct {
				name string
				set  regs.Set
			}{{"FREE", d.Free}, {"CALLER", d.Caller}, {"CALLEE", d.Callee}, {"MSPILL", d.MSpill}} {
				if s.set.Has(p.Reg) {
					c.violate(ClassInterference, nd.Name, "promoted register r%d (global %s) appears in %s", p.Reg, p.Name, s.name)
				}
			}
		}
		// Set domains: FREE/CALLEE/MSPILL draw from the callee-saves
		// registers; CALLER may also absorb callee-saves via the §4.2.4
		// post-pass but nothing outside the allocatable conventions.
		if bad := d.Free.Minus(stdCallee); !bad.Empty() {
			c.violate(ClassInterference, nd.Name, "FREE contains non-callee-saved %s", bad)
		}
		if bad := d.Callee.Minus(stdCallee); !bad.Empty() {
			c.violate(ClassInterference, nd.Name, "CALLEE contains non-callee-saved %s", bad)
		}
		if bad := d.MSpill.Minus(stdCallee); !bad.Empty() {
			c.violate(ClassInterference, nd.Name, "MSPILL contains non-callee-saved %s", bad)
		}
		if bad := d.Caller.Minus(stdCaller.Union(stdCallee)); !bad.Empty() {
			c.violate(ClassInterference, nd.Name, "CALLER contains unallocatable %s", bad)
		}
	}
}

// ----------------------------------------------------------------------------
// Class 3: clusters — single-rooted, predecessor-closed spill regions.

func (c *checker) checkClusters() {
	stdCallee := regs.StdCalleeSaved()
	for _, nd := range c.g.Nodes {
		d := c.dirs[nd.ID]
		if d == nil {
			continue
		}
		if !d.MSpill.Empty() && !d.IsClusterRoot {
			c.violate(ClassClusters, nd.Name, "MSPILL %s on a procedure that is not a cluster root", d.MSpill)
		}
		if !d.Free.Empty() {
			// Predecessor-closedness: a FREE register relies on every caller
			// lying inside the cluster, which unknown external code never is.
			for _, e := range nd.In {
				if c.g.Nodes[e.From].Rec == nil {
					c.violate(ClassClusters, nd.Name, "FREE %s but caller %s is outside the compiled program",
						d.Free, c.g.Nodes[e.From].Name)
				}
			}
		}
		// Single-root coverage: every register used without a local save —
		// FREE, and callee-saved registers moved into CALLER by the §4.2.4
		// post-pass — must be spilled by a cluster root on the dominator
		// chain (every path from a start passes through the saving root).
		for _, r := range d.Free.Regs() {
			if !c.dominatingRootSpills(nd.ID, r) {
				c.violate(ClassClusters, nd.Name, "FREE r%d is not spilled by any dominating cluster root", r)
			}
		}
		for _, r := range d.Caller.Intersect(stdCallee).Regs() {
			if !c.dominatingRootSpills(nd.ID, r) {
				c.violate(ClassClusters, nd.Name, "CALLER r%d (callee-saved) is not spilled by any dominating cluster root", r)
			}
		}
	}
}

// dominatingRootSpills reports whether some strict dominator of node id is
// a cluster root whose MSPILL set covers r. Nested clusters hoist MSPILL
// upward, so the covering root may sit above the nearest one.
func (c *checker) dominatingRootSpills(id int, r uint8) bool {
	for a := c.g.Nodes[id].IDom; a != -1; a = c.g.Nodes[a].IDom {
		if d := c.dirs[a]; d != nil && d.IsClusterRoot && d.MSpill.Has(r) {
			return true
		}
	}
	return false
}

// ----------------------------------------------------------------------------
// Class 4: call-edges — the usage sets partition safely at every edge.

func (c *checker) checkCallEdges() {
	for _, nd := range c.g.Nodes {
		d := c.dirs[nd.ID]
		if d == nil {
			continue
		}
		sets := []struct {
			name string
			set  regs.Set
		}{{"FREE", d.Free}, {"CALLER", d.Caller}, {"CALLEE", d.Callee}, {"MSPILL", d.MSpill}}
		for i := range sets {
			for j := i + 1; j < len(sets); j++ {
				if inter := sets[i].set.Intersect(sets[j].set); !inter.Empty() {
					c.violate(ClassCallEdges, nd.Name, "%s and %s overlap on %s", sets[i].name, sets[j].name, inter)
				}
			}
		}
	}
	c.checkAvail()
	c.checkClobbers()
}

// checkAvail runs the must-"available" dataflow over callee-saves
// registers: a register is available entering P only when, on EVERY call
// chain from a start node, it has been spilled by a cluster root and is
// not holding a value in any procedure still on the stack. Formally
// (greatest fixpoint, ⊤ = the callee-saves set):
//
//	in(P)  = ∅ for start nodes, else ∩ over call edges Q→P of out(Q)
//	out(P) = (in(P) ∪ MSPILL[P]) ∖ (FREE[P] ∪ CALLEE[P] ∪ promoted(P))
//	out(P) = ∅ for external procedures (standard convention: they may
//	         hold values in any callee-saves register)
//
// The safety checks: FREE[P] ⊆ in(P) — a register used without saving
// must be dead and pre-spilled on every path (this is exactly "no
// register free to clobber upstream while holding a value downstream") —
// and the callee-saved part of CALLER[P] ⊆ in(P) for the §4.2.4
// augmentation.
func (c *checker) checkAvail() {
	n := len(c.g.Nodes)
	full := regs.StdCalleeSaved()
	isStart := make([]bool, n)
	for _, s := range c.g.Starts {
		isStart[s] = true
	}
	for _, nd := range c.g.Nodes {
		if len(nd.In) == 0 {
			isStart[nd.ID] = true
		}
	}
	in := make([]regs.Set, n)
	out := make([]regs.Set, n)
	for i := 0; i < n; i++ {
		in[i] = full
		out[i] = full
	}
	rpo := c.g.ReversePostorder()
	for changed := true; changed; {
		changed = false
		for _, v := range rpo {
			nd := c.g.Nodes[v]
			newIn := full
			if isStart[v] {
				newIn = 0
			}
			for _, e := range nd.In {
				newIn = newIn.Intersect(out[e.From])
			}
			var newOut regs.Set
			if d := c.dirs[v]; d != nil {
				holds := d.Free.Union(d.Callee).Union(promotedRegs(d))
				newOut = newIn.Union(d.MSpill).Minus(holds)
			}
			if newIn != in[v] || newOut != out[v] {
				in[v], out[v] = newIn, newOut
				changed = true
			}
		}
	}
	for _, nd := range c.g.Nodes {
		d := c.dirs[nd.ID]
		if d == nil {
			continue
		}
		if miss := d.Free.Minus(in[nd.ID]); !miss.Empty() {
			c.violate(ClassCallEdges, nd.Name,
				"FREE %s not available from every caller (a caller chain may hold a value there; avail %s)",
				miss, in[nd.ID])
		}
		if miss := d.Caller.Intersect(full).Minus(in[nd.ID]); !miss.Empty() {
			c.violate(ClassCallEdges, nd.Name,
				"CALLER %s (callee-saved) not available from every caller (avail %s)", miss, in[nd.ID])
		}
	}
}

// checkClobbers validates the §7.6.2 contract: when HasClobber is set, a
// call to P must destroy no register outside ClobberAtCalls[P]. The
// actual may-clobber set is the least fixpoint of
//
//	clobber(P) = (CALLER[P] ∪ FREE[P] ∪ {rp} ∪ ⋃ over callees S of
//	              clobber(S)) ∖ (CALLEE[P] ∪ MSPILL[P] if root ∪ promoted(P))
//
// with external procedures clobbering the conventional caller-saves set
// plus the linkage registers. Registers P saves and restores (CALLEE,
// a root's MSPILL, promoted-web registers at entries) do not leak to the
// caller; everything else does, transitively.
func (c *checker) checkClobbers() {
	n := len(c.g.Nodes)
	external := regs.StdCallerSaved().Add(parv.RegRP).Add(parv.RegRet)
	clob := make([]regs.Set, n)
	post := c.g.Postorder()
	for changed := true; changed; {
		changed = false
		for _, v := range post {
			nd := c.g.Nodes[v]
			d := c.dirs[v]
			var s regs.Set
			if d == nil {
				s = external
			} else {
				// Every call writes the return pointer, whatever the callee.
				s = d.Caller.Union(d.Free).Add(parv.RegRP)
				for _, e := range nd.Out {
					s = s.Union(clob[e.To])
				}
				save := d.Callee.Union(promotedRegs(d))
				if d.IsClusterRoot {
					save = save.Union(d.MSpill)
				}
				s = s.Minus(save)
			}
			if s != clob[v] {
				clob[v] = s
				changed = true
			}
		}
	}
	for _, nd := range c.g.Nodes {
		d := c.dirs[nd.ID]
		if d == nil || !d.HasClobber {
			continue
		}
		if miss := clob[nd.ID].Minus(d.ClobberAtCalls); !miss.Empty() {
			c.violate(ClassCallEdges, nd.Name,
				"a call may clobber %s outside the advertised ClobberAtCalls %s", miss, d.ClobberAtCalls)
		}
	}
}
