package webs

import (
	"math/bits"
	"sort"

	"ipra/internal/callgraph"
	"ipra/internal/ir"
	"ipra/internal/refsets"
)

// The §6.2 economic filter's thresholds, as the prototype ran it: in the
// PA Optimizer experiment, 1094 webs were found but only 489 considered —
// the rest were "too sparse (low ratio of L_REF nodes to total nodes)" or
// single-node webs with infrequent access.
const (
	// MinLRefRatio is the minimum fraction of members that must reference
	// the variable locally.
	MinLRefRatio = 0.125
	// MinSingleNodeWeight is the minimum estimated dynamic reference count
	// for a single-node web to be worth a dedicated register.
	MinSingleNodeWeight = 8
)

// ComputePriorities fills RefWeight, EntryWeight, LRefNodes and Priority
// for every web. Following §4.1.3 and §7.5, the benefit estimate weighs
// the memory traffic a level-2 compilation pays for the variable in each
// member procedure by that procedure's estimated call count:
//
//   - a referencing procedure loads the variable at entry and stores it at
//     exit (2 transfers per invocation), and
//   - flushes/reloads it around every call it makes (2 transfers per
//     outgoing call), since the callee may use the variable;
//
// promotion deletes all of these. Against that, every call to a web entry
// node pays the inserted load/store plus the save/restore of the dedicated
// callee-saves register (4 transfers).
func ComputePriorities(g *callgraph.Graph, sets *refsets.Sets, ws []*Web) {
	for _, w := range ws {
		w.RefWeight = 0
		w.LRefNodes = 0
		vi := sets.Index[w.Var]
		// Word loop instead of ForEach: the closure would be heap-allocated
		// once per web.
		for wi, word := range w.Nodes {
			for word != 0 {
				id := wi*64 + bits.TrailingZeros64(word)
				word &= word - 1
				nd := g.Nodes[id]
				if !sets.LRef[id].Has(vi) {
					continue
				}
				w.LRefNodes++
				if nd.Rec == nil {
					continue
				}
				calls := nd.Count
				if calls < 1 {
					calls = 1
				}
				var callsOut float64
				for _, e := range nd.Out {
					callsOut += e.Count
				}
				w.RefWeight += 2*calls + 2*callsOut
			}
		}
		w.EntryWeight = 0
		for _, e := range w.Entries {
			c := g.Nodes[e].Count
			if c < 1 {
				c = 1
			}
			w.EntryWeight += 4 * c
		}
		w.Priority = w.RefWeight - w.EntryWeight
	}
}

// Filter marks webs that should not be considered for coloring. keepAll
// disables the economic filters (webs with no entry nodes are still
// discarded — they cannot be promoted correctly); the paper's illustrative
// examples and tests set it.
func Filter(ws []*Web, keepAll bool) {
	for _, w := range ws {
		size := w.Size()
		switch {
		case len(w.Entries) == 0:
			w.Discarded = true
			w.DiscardReason = "no entry nodes (cannot insert load/store)"
		case keepAll:
			// keep everything else
		case size == 1 && w.RefWeight < MinSingleNodeWeight:
			w.Discarded = true
			w.DiscardReason = "single node with infrequent access"
		case float64(w.LRefNodes)/float64(size) < MinLRefRatio:
			w.Discarded = true
			w.DiscardReason = "too sparse (low L_REF ratio)"
		case w.Priority <= 0:
			w.Discarded = true
			w.DiscardReason = "negative promotion benefit"
		}
	}
}

// Interfere reports whether two webs share a call graph node (§4.1.3:
// interfering webs cannot be promoted to the same register). With bit-set
// membership this is a word-wise intersection test.
func Interfere(a, b *Web) bool {
	if a == b {
		return false
	}
	return a.Nodes.Intersects(b.Nodes)
}

// Considered returns the colorable candidates in priority order (highest
// priority first, ties broken by web ID). This is the canonical candidate
// ordering every allocation strategy consumes; the paper's priority
// coloring walks exactly this list.
func Considered(ws []*Web) []*Web {
	var cs []*Web
	for _, w := range ws {
		if !w.Discarded {
			cs = append(cs, w)
		}
	}
	sort.SliceStable(cs, func(i, j int) bool {
		if cs[i].Priority != cs[j].Priority {
			return cs[i].Priority > cs[j].Priority
		}
		return cs[i].ID < cs[j].ID
	})
	return cs
}

// carveWebLists builds the node → web lists backbone for the coloring
// loops: per-node slices carved out of one slab, each with capacity for
// every considered web containing that node. The loops only ever append
// colored webs, so full considered membership is an upper bound (which
// webs end up colored cannot be known before coloring runs) — precounting
// it replaces per-node append growth, one allocation per list on the
// analyzer's hottest coloring path, with two slab allocations total.
func carveWebLists(cs []*Web, maxNodes int) [][]*Web {
	counts := make([]int, maxNodes)
	total := 0
	for _, w := range cs {
		for wi, word := range w.Nodes {
			for word != 0 {
				id := wi*64 + bits.TrailingZeros64(word)
				word &= word - 1
				counts[id]++
				total++
			}
		}
	}
	slab := make([]*Web, total)
	lists := make([][]*Web, maxNodes)
	off := 0
	for id, c := range counts {
		if c > 0 {
			lists[id] = slab[off : off : off+c]
			off += c
		}
	}
	return lists
}

// Color assigns register indexes 0..numRegs-1 to webs in priority order
// (§4.1.3): each web receives the lowest index not used by an interfering
// web already colored. Webs left uncolored keep Color == -1 (their
// variables may still be promoted intraprocedurally by the compiler second
// phase).
//
// Conflicts are found through per-node lists of already-colored webs
// rather than a pairwise scan over every earlier candidate: a colored web
// interferes exactly when it shares a member node, and at any node the
// colored webs all carry distinct colors, so each list holds at most
// numRegs entries. The assignment is identical to the pairwise
// formulation; only the cost drops from quadratic in the candidate count
// to linear in total web membership.
func Color(ws []*Web, numRegs int) int {
	cs := Considered(ws)
	colored := 0
	maxNodes := 0
	for _, w := range cs {
		if n := len(w.Nodes) * 64; n > maxNodes {
			maxNodes = n
		}
	}
	webAt := carveWebLists(cs, maxNodes) // node -> colored webs containing it
	inUse := make([]bool, numRegs)
	ids := make([]int, 0, 64)
	for _, w := range cs {
		for c := range inUse {
			inUse[c] = false
		}
		ids = w.Nodes.Elems(ids[:0])
		for _, id := range ids {
			for _, x := range webAt[id] {
				inUse[x.Color] = true
			}
		}
		w.Color = -1
		for c := 0; c < numRegs; c++ {
			if !inUse[c] {
				w.Color = c
				colored++
				break
			}
		}
		if w.Color >= 0 {
			for _, id := range ids {
				webAt[id] = append(webAt[id], w)
			}
		}
	}
	return colored
}

// GreedyColor implements the "greedy" strategy of §6.1 (Table 4 column D):
// color as many webs as possible using the full callee-saves set, but
// without reserving any callee-saves register a member procedure itself
// requires — at every node, the registers taken by webs plus the node's
// own callee-saves need must fit in the set.
//
// need maps node ID to the procedure's estimated callee-saves requirement;
// totalRegs is the size of the callee-saves set.
func GreedyColor(ws []*Web, g *callgraph.Graph, need func(int) int, totalRegs int) int {
	cs := Considered(ws)
	webAt := carveWebLists(cs, len(g.Nodes)) // node -> colored webs containing it
	colored := 0
	ids := make([]int, 0, 64)
	inUse := make([]bool, totalRegs)
	for _, w := range cs {
		ids = w.Nodes.Elems(ids[:0])
		// Head-room check at every member node.
		ok := true
		for _, id := range ids {
			if len(webAt[id])+need(id)+1 > totalRegs {
				ok = false
				break
			}
		}
		if !ok {
			w.Color = -1
			continue
		}
		// Lowest color unused by interfering colored webs.
		for c := range inUse {
			inUse[c] = false
		}
		for _, id := range ids {
			for _, x := range webAt[id] {
				if x.Color >= 0 {
					inUse[x.Color] = true
				}
			}
		}
		w.Color = -1
		for c := 0; c < totalRegs; c++ {
			if !inUse[c] {
				w.Color = c
				break
			}
		}
		if w.Color < 0 {
			continue
		}
		colored++
		for _, id := range ids {
			webAt[id] = append(webAt[id], w)
		}
	}
	return colored
}

// BlanketSelect implements [Wall 86]-style blanket promotion (Table 4
// column E): the n most frequently used eligible globals — "as determined
// by analyzing the prioritized web list" (§6.1) — each get a dedicated
// register over the whole program. Every node that may reference the
// variable joins the web; the start nodes are the entries.
func BlanketSelect(g *callgraph.Graph, sets *refsets.Sets, ws []*Web, n int) []*Web {
	// Total weight per variable from the prioritized web list.
	weight := make(map[string]float64)
	for _, w := range ws {
		if !w.Discarded {
			weight[w.Var] += w.RefWeight
		}
	}
	vars := make([]string, 0, len(weight))
	for v := range weight {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool {
		if weight[vars[i]] != weight[vars[j]] {
			return weight[vars[i]] > weight[vars[j]]
		}
		return vars[i] < vars[j]
	})
	if len(vars) > n {
		vars = vars[:n]
	}

	var out []*Web
	for i, v := range vars {
		w := &Web{
			ID: 10000 + i, Var: v, Nodes: ir.NewBitSet(len(g.Nodes)),
			Color: i, Blanket: true,
		}
		w.Nodes.Fill(len(g.Nodes))
		w.Entries = append(w.Entries, g.Starts...)
		out = append(out, w)
	}
	return out
}
