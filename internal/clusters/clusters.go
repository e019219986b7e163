// Package clusters implements spill code motion (§4.2 of the paper):
// identifying clusters — single-rooted, predecessor-closed, acyclic
// regions of the call graph — and computing the per-procedure register
// usage sets FREE, CALLER, CALLEE and MSPILL that let a cluster root
// execute callee-saves spill code on behalf of its members.
//
// The cluster identification algorithm (the paper's Figure 5 appears only
// as an image) is reconstructed from the prose of §4.2.1–4.2.2:
//
//   - clusters are found in a depth-first traversal where Postpone_Visit
//     defers a node until all its predecessors have been visited, except
//     inside recursive call chains;
//   - a node roots a cluster when the heuristic finds its dominated
//     successors are called more often than the node itself (moving their
//     spill code into the node then saves instructions);
//   - a member's immediate predecessors must all be inside the cluster
//     (property [2]); a node joins only the cluster of its nearest
//     dominating root (property [3]); recursive call cycles may not lie
//     wholly within a cluster, though clusters may be identified inside
//     cycles (Figure 7).
//
// The register usage set computation follows Figure 6 (Preallocate_Node)
// literally, including MSPILL hoisting across nested clusters and the
// CALLER-set augmentation post-pass.
package clusters

import (
	"fmt"
	"sort"

	"ipra/internal/callgraph"
	"ipra/internal/ir"
	"ipra/internal/regs"
)

// Cluster is one identified cluster.
type Cluster struct {
	Root int
	// Members lists Cluster_Nodes[Root]: the nodes that belong to the
	// cluster, excluding the root itself. A member may be the root of a
	// nested cluster.
	Members []int
}

// Contains reports whether id is the root or a member.
func (c *Cluster) Contains(id int) bool {
	if id == c.Root {
		return true
	}
	for _, m := range c.Members {
		if m == id {
			return true
		}
	}
	return false
}

func (c *Cluster) String() string {
	return fmt.Sprintf("cluster root=%d members=%v", c.Root, c.Members)
}

// Identification holds the cluster structure of a call graph.
type Identification struct {
	Clusters []*Cluster
	// RootCluster maps a root node ID to its cluster.
	RootCluster map[int]*Cluster
	// MemberRoot maps a node ID to the root of the cluster it is a member
	// of (excluding its own cluster if it is a root). Nodes that belong to
	// no cluster are absent.
	MemberRoot map[int]int
}

// IsRoot reports whether node id roots a cluster.
func (id *Identification) IsRoot(n int) bool {
	_, ok := id.RootCluster[n]
	return ok
}

// Identify finds the clusters of the call graph. Call counts must already
// be estimated (heuristically or from profile data).
func Identify(g *callgraph.Graph) *Identification {
	res := &Identification{
		RootCluster: make(map[int]*Cluster),
		MemberRoot:  make(map[int]int),
	}

	// memberBits mirrors each cluster's member list as a bit set so the
	// membership probes of the cycle check are O(1); visited is the shared
	// scratch set for those DFS walks.
	memberBits := make(map[*Cluster]ir.BitSet)
	visited := ir.NewBitSet(len(g.Nodes))

	makeRoot := func(n int) {
		if _, ok := res.RootCluster[n]; ok {
			return
		}
		c := &Cluster{Root: n}
		res.RootCluster[n] = c
		res.Clusters = append(res.Clusters, c)
		memberBits[c] = ir.NewBitSet(len(g.Nodes))
	}

	// Processing order: predecessors first (Postpone_Visit), with the
	// recursive-chain exception handled by ordering whole SCCs via the
	// condensation. Tarjan numbers SCCs in reverse topological order, so
	// descending SCC index visits callers before callees; ties (within an
	// SCC) follow reverse postorder.
	order := g.ReversePostorder()
	sort.SliceStable(order, func(i, j int) bool {
		return g.Nodes[order[i]].SCC > g.Nodes[order[j]].SCC
	})

	for _, n := range order {
		nd := g.Nodes[n]
		// Procedures without summary records (run-time routines, unknown
		// external code) cannot have spill code inserted: they neither
		// root clusters nor join them (§7.2).
		if nd.Rec == nil {
			continue
		}
		isStartNode := len(nd.In) == 0

		// Find the cluster that contains every immediate predecessor
		// (as root or member). Property [2] requires this for membership.
		joinable := (*Cluster)(nil)
		if !isStartNode {
			joinable = commonCluster(g, res, n)
		}

		// Recursion restriction: a cluster may not contain a cycle. The
		// node cannot join if it is self-recursive or shares an SCC with
		// any node already in the candidate cluster.
		if joinable != nil && formsCycleIn(g, memberBits[joinable], n, visited) {
			joinable = nil
		}

		if joinable != nil {
			joinable.Members = append(joinable.Members, n)
			memberBits[joinable].Set(n)
			res.MemberRoot[n] = joinable.Root
		}

		// Root heuristic: start nodes always root a cluster (the program
		// boundary adheres to the standard convention); otherwise compare
		// incoming call counts with calls to dominated successors.
		if isStartNode || wantsRoot(g, n) {
			makeRoot(n)
		}
	}

	// Drop trivial clusters (roots that attracted no members); they would
	// only add MSPILL overhead with no beneficiaries.
	var kept []*Cluster
	for _, c := range res.Clusters {
		if len(c.Members) == 0 {
			delete(res.RootCluster, c.Root)
			continue
		}
		kept = append(kept, c)
	}
	res.Clusters = kept
	// MemberRoot entries pointing at dropped roots must be cleared.
	for n, r := range res.MemberRoot {
		if _, ok := res.RootCluster[r]; !ok {
			delete(res.MemberRoot, n)
		}
	}
	return res
}

// commonCluster returns the cluster containing all immediate predecessors
// of n, or nil.
func commonCluster(g *callgraph.Graph, res *Identification, n int) *Cluster {
	var cand *Cluster
	for _, e := range g.Nodes[n].In {
		p := e.From
		if p == n {
			continue // self loop; the cycle check rejects separately
		}
		if g.Nodes[p].Rec == nil {
			return nil // unknown external caller: n cannot be a member
		}
		// The predecessor must be in some cluster: either as a member, or
		// as a root (then n may join that root's cluster).
		var c *Cluster
		if r, ok := res.MemberRoot[p]; ok {
			c = res.RootCluster[r]
		}
		if rc, ok := res.RootCluster[p]; ok {
			// A predecessor that is itself a root: joining the root's own
			// cluster keeps the nearest-root property [3].
			c = rc
		}
		if c == nil {
			return nil
		}
		if cand == nil {
			cand = c
		} else if cand != c {
			return nil
		}
	}
	return cand
}

// formsCycleIn reports whether adding n to cluster c would put a recursive
// call cycle wholly inside the cluster's *members*. Cycles that pass
// through the root are harmless — the root executes the spill code on
// every invocation, so values in members' FREE registers survive calls
// back into the root (this is what lets clusters live inside cycles, as in
// Figure 7). A cycle among members alone would reuse FREE registers
// without any intervening save.
func formsCycleIn(g *callgraph.Graph, members ir.BitSet, n int, visited ir.BitSet) bool {
	nd := g.Nodes[n]
	for _, e := range nd.Out {
		if e.To == n {
			return true // self-recursive members are never allowed
		}
	}
	if !nd.Recursive {
		return false
	}
	// n is part of some cycle: does any cycle through n avoid the root
	// while staying among the cluster's members (plus n)? DFS from n
	// through member nodes only; reaching n again closes a member-only
	// cycle. visited is caller-provided scratch, cleared here.
	for i := range visited {
		visited[i] = 0
	}
	var stack []int
	for _, e := range nd.Out {
		if members.Has(e.To) {
			stack = append(stack, e.To)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == n {
			return true
		}
		if visited.Has(v) {
			continue
		}
		visited.Set(v)
		for _, e := range g.Nodes[v].Out {
			if e.To == n || members.Has(e.To) {
				stack = append(stack, e.To)
			}
		}
	}
	return false
}

// wantsRoot is the root candidacy heuristic of §4.2.2: compare the
// incoming call counts with the outgoing call counts to immediate
// successors that are dominated by the node.
func wantsRoot(g *callgraph.Graph, n int) bool {
	nd := g.Nodes[n]
	var in, outDom float64
	for _, e := range nd.In {
		in += e.Count
	}
	for _, e := range nd.Out {
		if e.To != n && g.Dominates(n, e.To) {
			outDom += e.Count
		}
	}
	return outDom > in && outDom > 0
}

// Validate checks the cluster properties of §4.2.1; used by property tests.
func Validate(g *callgraph.Graph, res *Identification) error {
	for _, c := range res.Clusters {
		seen := map[int]bool{c.Root: true}
		for _, m := range c.Members {
			if seen[m] {
				return fmt.Errorf("cluster %d: duplicate member %d", c.Root, m)
			}
			seen[m] = true
		}
		for _, m := range c.Members {
			// Property [1]: the root dominates every member.
			if !g.Dominates(c.Root, m) {
				return fmt.Errorf("cluster %d: root does not dominate member %d", c.Root, m)
			}
			// Property [2]: all immediate predecessors of a member are in
			// the cluster.
			for _, e := range g.Nodes[m].In {
				if !seen[e.From] {
					return fmt.Errorf("cluster %d: member %d has external predecessor %d", c.Root, m, e.From)
				}
			}
		}
		// No recursive call cycle wholly within the cluster's members: the
		// member-induced subgraph (root excluded, since the root spills on
		// every invocation) must be acyclic and free of self-loops.
		members := ir.NewBitSet(len(g.Nodes))
		for _, m := range c.Members {
			members.Set(m)
		}
		for _, m := range c.Members {
			for _, e := range g.Nodes[m].Out {
				if e.To == m {
					return fmt.Errorf("cluster %d: self-recursive member %d", c.Root, m)
				}
			}
		}
		if cyc := memberCycle(g, members); cyc >= 0 {
			return fmt.Errorf("cluster %d: member-only cycle through node %d", c.Root, cyc)
		}
	}
	// Property [3]: a node is a member of at most one cluster.
	member := map[int]int{}
	for _, c := range res.Clusters {
		for _, m := range c.Members {
			if r, dup := member[m]; dup {
				return fmt.Errorf("node %d is a member of clusters %d and %d", m, r, c.Root)
			}
			member[m] = c.Root
		}
	}
	return nil
}

// Prune dissolves clusters whose spill motion would cost more than it
// saves: the root executes save/restore code for every preallocated
// register on every invocation, which only pays off when the members are
// called more often than the root (§4.2.1). This is the refined root
// heuristic §7.6.2 calls for — it accounts for register need, not just
// call counts.
func Prune(g *callgraph.Graph, id *Identification, need func(int) int) {
	var kept []*Cluster
	for _, c := range id.Clusters {
		rootCount := g.Nodes[c.Root].Count
		if rootCount < 1 {
			rootCount = 1
		}
		var benefit float64
		spillRegs := 0
		for _, m := range c.Members {
			n := need(m)
			cnt := g.Nodes[m].Count
			if cnt < 1 {
				cnt = 1
			}
			// Without the cluster, m saves and restores n registers on
			// every invocation.
			benefit += cnt * float64(n)
			spillRegs += n
		}
		if spillRegs > 16-need(c.Root) {
			spillRegs = 16 - need(c.Root)
		}
		cost := rootCount * float64(spillRegs)
		if cost >= benefit {
			delete(id.RootCluster, c.Root)
			for _, m := range c.Members {
				if id.MemberRoot[m] == c.Root {
					delete(id.MemberRoot, m)
				}
			}
			continue
		}
		kept = append(kept, c)
	}
	id.Clusters = kept
}

// memberCycle returns a node on a cycle of the member-induced subgraph,
// or -1 if it is acyclic. Three-colour DFS.
func memberCycle(g *callgraph.Graph, members ir.BitSet) int {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int8, len(g.Nodes))
	var visit func(v int) int
	visit = func(v int) int {
		color[v] = grey
		for _, e := range g.Nodes[v].Out {
			if !members.Has(e.To) {
				continue
			}
			switch color[e.To] {
			case grey:
				return e.To
			case white:
				if c := visit(e.To); c >= 0 {
					return c
				}
			}
		}
		color[v] = black
		return -1
	}
	cyc := -1
	members.ForEach(func(m int) {
		if cyc < 0 && color[m] == white {
			if c := visit(m); c >= 0 {
				cyc = c
			}
		}
	})
	return cyc
}

// AverageSize returns the mean cluster size (root + members); the paper
// reports 2–4 for its benchmarks (§6.2).
func (id *Identification) AverageSize() float64 {
	if len(id.Clusters) == 0 {
		return 0
	}
	total := 0
	for _, c := range id.Clusters {
		total += 1 + len(c.Members)
	}
	return float64(total) / float64(len(id.Clusters))
}

// ----------------------------------------------------------------------------
// Register usage sets (§4.2.3–4.2.4, Figure 6)

// Sets are the four register usage sets for one procedure (§4.2.3).
type Sets struct {
	// Free registers need not be saved/restored and may hold values across
	// calls.
	Free regs.Set
	// Caller registers need not be saved/restored but may not hold values
	// across calls.
	Caller regs.Set
	// Callee registers must be saved/restored if used, and may hold values
	// across calls.
	Callee regs.Set
	// MSpill registers must be saved/restored regardless of use (cluster
	// roots only) and may not hold live values across calls.
	MSpill regs.Set
}

// Assignment carries the computed sets and AVAIL information per node,
// indexed by node ID (node IDs are dense, so flat slices beat maps on the
// analyzer's hot path).
type Assignment struct {
	Sets  []*Sets
	Avail []regs.Set
}

// ComputeSets runs the Figure 6 preallocation over every cluster in
// bottom-up order and returns the final register usage sets.
//
// need(n) is the procedure's callee-saves requirement estimate from its
// summary record; promoted(n) is the set of callee-saves registers
// reserved at node n for interprocedurally promoted globals (webs), which
// are excluded from preallocation over any cluster containing n.
func ComputeSets(g *callgraph.Graph, id *Identification, need func(int) int, promoted func(int) regs.Set) *Assignment {
	n := len(g.Nodes)
	asn := &Assignment{Sets: make([]*Sets, n), Avail: make([]regs.Set, n)}
	backing := make([]Sets, n)
	std := Sets{Caller: regs.StdCallerSaved(), Callee: regs.StdCalleeSaved()}
	for i := range backing {
		backing[i] = std
		asn.Sets[i] = &backing[i]
	}

	// Bottom-up over clusters: nested clusters (whose roots are deeper in
	// the dominator tree) are processed before the clusters that contain
	// them.
	order := append([]*Cluster(nil), id.Clusters...)
	sort.SliceStable(order, func(i, j int) bool {
		return g.Nodes[order[i].Root].DomDepth > g.Nodes[order[j].Root].DomDepth
	})

	// Scratch bitsets shared by every preallocate call: both only ever
	// hold bits for the current cluster's nodes, which preallocate clears
	// on exit — far cheaper than a fresh allocation per cluster.
	scratch := &preallocScratch{
		inCluster: ir.NewBitSet(n),
		visited:   ir.NewBitSet(n),
	}
	for _, c := range order {
		preallocate(g, id, asn, c, need, promoted, scratch)
	}
	return asn
}

// preallocScratch holds per-cluster working bitsets reused across the
// bottom-up sweep.
type preallocScratch struct {
	inCluster ir.BitSet
	visited   ir.BitSet
}

// preallocate processes one cluster: Figure 6 plus the MSPILL/CALLER
// post-passes of §4.2.4.
func preallocate(g *callgraph.Graph, id *Identification, asn *Assignment, c *Cluster, need func(int) int, promoted func(int) regs.Set, scratch *preallocScratch) {
	r := c.Root
	std := regs.StdCalleeSaved()

	// Registers in the MSPILL (and CALLEE) sets of nested cluster roots
	// inside this cluster: select them LAST so they stay available at the
	// nested root, allowing its spill obligations to hoist into ours
	// ("registers not in the set will be selected first to increase the
	// chances that we will be able to move registers from the MSPILL set
	// at the child cluster root to the MSPILL set of the current cluster
	// root", §4.2.4).
	var childMSpill regs.Set
	for _, m := range c.Members {
		if id.IsRoot(m) {
			childMSpill = childMSpill.Union(asn.Sets[m].MSpill)
			childMSpill = childMSpill.Union(asn.Sets[m].Callee)
		}
	}

	// Registers reserved for promoted globals anywhere in the cluster are
	// conservatively removed from preallocation (§7.6.2 discusses the
	// finer-grained alternative).
	var promotedInCluster regs.Set
	promotedInCluster = promotedInCluster.Union(promoted(r))
	for _, m := range c.Members {
		promotedInCluster = promotedInCluster.Union(promoted(m))
	}

	// Select CALLEE[R]: the root's own callee-saves need, chosen from
	// registers outside childMSpill first so hoisting stays possible.
	rootSets := asn.Sets[r]
	avail := std.Minus(promotedInCluster)
	calleeR := pickRegisters(need(r), avail.Minus(rootSets.MSpill), childMSpill)
	rootSets.Callee = calleeR
	asn.Avail[r] = avail.Minus(calleeR)

	inCluster := scratch.inCluster
	inCluster.Set(r)
	for _, m := range c.Members {
		inCluster.Set(m)
	}
	defer func() {
		// Both scratch sets only gained bits for this cluster's nodes.
		scratch.inCluster.Clear(r)
		scratch.visited.Clear(r)
		for _, m := range c.Members {
			scratch.inCluster.Clear(m)
			scratch.visited.Clear(m)
		}
	}()

	var used regs.Set
	visited := scratch.visited
	var visit func(n int)
	visit = func(n int) {
		visited.Set(n)
		s := asn.Sets[n]
		if n != r {
			// AVAIL[N] = ∩ AVAIL[P] over immediate predecessors.
			first := true
			var av regs.Set
			for _, e := range g.Nodes[n].In {
				pa := asn.Avail[e.From]
				if first {
					av = pa
					first = false
				} else {
					av = av.Intersect(pa)
				}
			}
			asn.Avail[n] = av

			if id.IsRoot(n) {
				// Nested cluster root: hoist its MSPILL into ours where
				// possible, and give it free use of available registers it
				// was going to save anyway.
				used = used.Union(s.MSpill.Intersect(av))
				s.MSpill = s.MSpill.Minus(av)
				used = used.Union(s.Callee.Intersect(av))
				s.Free = s.Callee.Intersect(av)
				s.Callee = s.Callee.Minus(s.Free)
				// The nested root now holds values in its FREE registers
				// without saving them; they are no longer available to the
				// nodes it dominates (a descendant picking one as its own
				// FREE would clobber the nested root's live value).
				asn.Avail[n] = av.Minus(s.Free)
			} else {
				s.Free = pickRegisters(need(n), av, childMSpill)
				asn.Avail[n] = av.Minus(s.Free)
				s.Callee = s.Callee.Minus(s.Free.Union(asn.Avail[n]))
				used = used.Union(s.Free)
			}
		}
		for _, e := range g.Nodes[n].Out {
			sn := e.To
			if !inCluster.Has(sn) || visited.Has(sn) {
				continue
			}
			if allPredsVisited(g, sn, visited) {
				visit(sn)
			}
		}
	}
	visit(r)

	// All registers preallocated anywhere in the cluster become the root's
	// responsibility to spill.
	rootSets.MSpill = rootSets.MSpill.Union(used)

	// Post-pass (§4.2.4): callee-saves registers spilled at the root can be
	// used as caller-saves registers at intermediate nodes on paths where
	// they were not preallocated.
	for _, q := range c.Members {
		if !id.IsRoot(q) {
			qs := asn.Sets[q]
			qs.Caller = qs.Caller.Union(asn.Avail[q].Intersect(rootSets.MSpill))
		}
	}
}

func allPredsVisited(g *callgraph.Graph, n int, visited ir.BitSet) bool {
	for _, e := range g.Nodes[n].In {
		if !visited.Has(e.From) {
			return false
		}
	}
	return true
}

// pickRegisters selects up to count registers from avail, preferring
// registers outside the avoid set, then ascending register number
// (Figure 6's Get_Registers with the cluster's priority order).
func pickRegisters(count int, avail, avoid regs.Set) regs.Set {
	var out regs.Set
	if count <= 0 {
		return out
	}
	// Walk the sets bit by bit instead of materializing Regs() slices:
	// this runs once per procedure per analysis, and the two slices were
	// among the analyzer's hottest remaining allocations.
	for _, s := range [2]regs.Set{avail.Minus(avoid), avail.Intersect(avoid)} {
		for r := uint8(0); r < 32; r++ {
			if out.Count() >= count {
				return out
			}
			if s.Has(r) {
				out = out.Add(r)
			}
		}
	}
	return out
}
