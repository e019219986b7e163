// Package callgraph builds and analyzes the program call graph from
// summary files, as the program analyzer does in §4 of the paper.
//
// It provides the supporting analyses the promotion and spill-motion
// algorithms need: start nodes, indirect-call edges (§7.3), strongly
// connected components (recursive call chains), dominators (for cluster
// identification, §4.2.1), and estimated call counts — either the
// compile-time heuristic counts normalized over the graph (§6.2) or exact
// profile counts (§7.5).
package callgraph

import (
	"fmt"
	"sort"

	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/summary"
)

// Edge is a call arc with an estimated (or profiled) dynamic count.
type Edge struct {
	From, To int
	Count    float64
	Indirect bool
	// LocalFreq is the raw loop-depth-weighted count from the summary.
	LocalFreq int64
}

// Node is a procedure in the program call graph.
type Node struct {
	ID     int
	Name   string
	Module string

	// Rec is the procedure's summary record; nil for external procedures
	// (run-time library routines not exposed to the analyzer, §7.2).
	Rec *summary.ProcRecord

	Out []*Edge
	In  []*Edge

	// SCC is the strongly connected component index; components are
	// numbered in reverse topological order (callees before callers).
	SCC int
	// Recursive is set for nodes in a non-trivial SCC or with a self-loop.
	Recursive bool

	// IDom is the immediate dominator's node ID (-1 for start nodes).
	IDom int
	// DomDepth is the depth in the dominator tree.
	DomDepth int

	// Count estimates how many times the node is called at run time.
	Count float64
}

// Graph is the program call graph.
type Graph struct {
	Nodes  []*Node
	byName map[string]int

	// Starts lists nodes with no predecessors ("Every node without a
	// predecessor is treated as a start node", §4.1.2 fn 2).
	Starts []int

	// Globals is the program-wide global table (summary.MergeGlobals).
	Globals map[string]*summary.GlobalInfo

	// AddrTakenProcs is the set of procedures whose addresses are computed
	// anywhere (the conservative indirect-call target set, §7.3).
	AddrTakenProcs map[string]bool

	// rpo caches the reverse postorder over the current node and edge set.
	// Every consumer of ReversePostorder/Postorder (dominators, reference
	// sets, webs, clusters) shares this one traversal; mutations that change
	// the node or edge set must go through recomputeOrders.
	rpo []int
	// startSet mirrors Starts for O(1) membership tests.
	startSet ir.BitSet

	// slab batch-allocates Node values: graph construction pays one
	// allocation per chunk instead of one per procedure.
	slab nodeSlab
}

// nodeSlab hands out Node values carved from chunked backing arrays. The
// chunks are never reclaimed, so nodes stay valid for the graph's
// lifetime like individually allocated ones would.
type nodeSlab struct {
	free []Node
}

func (s *nodeSlab) new() *Node {
	if len(s.free) == 0 {
		s.free = make([]Node, 512)
	}
	n := &s.free[0]
	s.free = s.free[1:]
	return n
}

// NodeByName returns the node with the given qualified name, or nil.
func (g *Graph) NodeByName(name string) *Node {
	if id, ok := g.byName[name]; ok {
		return g.Nodes[id]
	}
	return nil
}

// Build constructs the call graph from module summaries.
func Build(summaries []*summary.ModuleSummary) (*Graph, error) {
	g := &Graph{
		byName:         make(map[string]int),
		Globals:        summary.MergeGlobals(summaries),
		AddrTakenProcs: make(map[string]bool),
	}

	// Create nodes for every summarized procedure.
	addNode := func(name, module string, rec *summary.ProcRecord) *Node {
		if id, ok := g.byName[name]; ok {
			n := g.Nodes[id]
			if n.Rec == nil && rec != nil {
				n.Rec = rec
				n.Module = module
			} else if rec != nil && n.Rec != nil {
				// Duplicate definition: the linker would reject it too.
				n.Rec = rec
			}
			return n
		}
		n := g.slab.new()
		*n = Node{ID: len(g.Nodes), Name: name, Module: module, Rec: rec, IDom: -1}
		g.Nodes = append(g.Nodes, n)
		g.byName[name] = n.ID
		return n
	}
	for _, ms := range summaries {
		for i := range ms.Procs {
			rec := &ms.Procs[i]
			addNode(rec.Name, rec.Module, rec)
			for _, at := range rec.AddrTakenProcs {
				g.AddrTakenProcs[at] = true
			}
		}
	}
	// External callees (runtime routines) become record-less leaf nodes.
	for _, ms := range summaries {
		for i := range ms.Procs {
			for _, cs := range ms.Procs[i].Calls {
				addNode(cs.Callee, "", nil)
			}
		}
	}
	// Address-taken names no module defines or calls directly, in sorted
	// order: node IDs index every derived structure, so the node order
	// must be a function of the summaries alone.
	for _, at := range sortedSet(g.AddrTakenProcs) {
		addNode(at, "", nil)
	}

	g.buildEdges(summaries)

	for _, n := range g.Nodes {
		if len(n.In) == 0 {
			g.Starts = append(g.Starts, n.ID)
		}
	}
	if len(g.Starts) == 0 {
		// Entirely cyclic program: fall back to main, or node 0.
		if id, ok := g.byName["main"]; ok {
			g.Starts = []int{id}
		} else if len(g.Nodes) > 0 {
			g.Starts = []int{0}
		} else {
			return nil, fmt.Errorf("callgraph: empty program")
		}
	}

	g.recomputeOrders()
	g.computeSCC()
	g.computeDominators()
	return g, nil
}

// AddSyntheticCaller adds a record-less node representing unknown external
// code that may call each of the target nodes (used for partial call
// graphs, §7.2). The new node becomes a start node and the derived
// analyses (SCCs, dominators, start set) are recomputed.
func (g *Graph) AddSyntheticCaller(name string, targets []int) *Node {
	n := g.slab.new()
	*n = Node{ID: len(g.Nodes), Name: name, IDom: -1}
	g.Nodes = append(g.Nodes, n)
	g.byName[name] = n.ID
	for _, t := range targets {
		e := &Edge{From: n.ID, To: t, LocalFreq: 1}
		n.Out = append(n.Out, e)
		g.Nodes[t].In = append(g.Nodes[t].In, e)
	}
	g.Starts = g.Starts[:0]
	for _, nd := range g.Nodes {
		if len(nd.In) == 0 {
			g.Starts = append(g.Starts, nd.ID)
		}
	}
	g.recomputeOrders()
	g.computeSCC()
	g.computeDominators()
	return n
}

// Restore assembles a graph from deserialized nodes and start IDs — the
// analyzer state's decode path (core.DecodeState). Edge lists, SCC labels,
// dominators, and counts must already be populated on the nodes; the
// name index and traversal orders are re-derived here.
func Restore(nodes []*Node, starts []int) *Graph {
	g := &Graph{
		Nodes:          nodes,
		byName:         make(map[string]int, len(nodes)),
		Starts:         starts,
		Globals:        make(map[string]*summary.GlobalInfo),
		AddrTakenProcs: make(map[string]bool),
	}
	for _, nd := range nodes {
		g.byName[nd.Name] = nd.ID
	}
	g.recomputeOrders()
	return g
}

// buildEdges derives the whole edge set from the summaries onto the
// existing node set. It runs the iteration twice: a counting pass sizes
// three exactly-fitting slabs (the Edge values and the per-node Out/In
// pointer lists, carved per node), then the edge pass fills them — a
// constant number of allocations however many edges the program has.
// Edges are added in Build's historical order (summary, record, call
// site; indirect targets in sorted-name order) because per-node In/Out
// order feeds float summations downstream: the resulting graph must match
// an edge-at-a-time construction exactly. Build creates a node for every
// callee and address-taken name before calling it.
func (g *Graph) buildEdges(summaries []*summary.ModuleSummary) {
	targets := sortedSet(g.AddrTakenProcs)
	n := len(g.Nodes)
	outDeg := make([]int, n)
	inDeg := make([]int, n)
	total := 0
	for _, ms := range summaries {
		for i := range ms.Procs {
			rec := &ms.Procs[i]
			from := g.byName[rec.Name]
			for _, cs := range rec.Calls {
				outDeg[from]++
				inDeg[g.byName[cs.Callee]]++
				total++
			}
			if rec.MakesIndirectCalls {
				for _, t := range targets {
					outDeg[from]++
					inDeg[g.byName[t]]++
					total++
				}
			}
		}
	}

	edges := make([]Edge, total)
	outPtrs := make([]*Edge, total)
	inPtrs := make([]*Edge, total)
	oOff, iOff := 0, 0
	for id, nd := range g.Nodes {
		nd.Out = outPtrs[oOff : oOff : oOff+outDeg[id]]
		oOff += outDeg[id]
		nd.In = inPtrs[iOff : iOff : iOff+inDeg[id]]
		iOff += inDeg[id]
	}

	next := 0
	addEdge := func(from, to int, freq int64, indirect bool) {
		e := &edges[next]
		next++
		*e = Edge{From: from, To: to, LocalFreq: freq, Indirect: indirect}
		g.Nodes[from].Out = append(g.Nodes[from].Out, e)
		g.Nodes[to].In = append(g.Nodes[to].In, e)
	}
	for _, ms := range summaries {
		for i := range ms.Procs {
			rec := &ms.Procs[i]
			from := g.byName[rec.Name]
			for _, cs := range rec.Calls {
				addEdge(from, g.byName[cs.Callee], cs.Freq, false)
			}
			// Indirect calls: conservatively, every address-taken procedure
			// is a possible target (§7.3).
			if rec.MakesIndirectCalls {
				for _, t := range targets {
					freq := rec.IndirectCallFreq / int64(len(targets))
					if freq == 0 {
						freq = 1
					}
					addEdge(from, g.byName[t], freq, true)
				}
			}
		}
	}
}

func sortedSet(m map[string]bool) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// ----------------------------------------------------------------------------
// Strongly connected components (Tarjan, iterative).

func (g *Graph) computeSCC() {
	n := len(g.Nodes)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0
	nextSCC := 0

	type frame struct {
		v, ei int
	}
	// comp and callStack are reused across roots; component membership is
	// only needed transiently to number and size each SCC, so nothing here
	// allocates per component.
	var comp []int
	var callStack []frame
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		callStack = append(callStack[:0], frame{v: root})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			v := f.v
			if f.ei < len(g.Nodes[v].Out) {
				w := g.Nodes[v].Out[f.ei].To
				f.ei++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w})
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
				continue
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := callStack[len(callStack)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				comp = comp[:0]
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				// Tarjan emits components in reverse topological order
				// (callees first); number them in emission order.
				rec := len(comp) > 1
				for _, w := range comp {
					g.Nodes[w].SCC = nextSCC
					g.Nodes[w].Recursive = rec
				}
				nextSCC++
			}
		}
	}
	// Self-loops are recursive too.
	for _, nd := range g.Nodes {
		for _, e := range nd.Out {
			if e.To == nd.ID {
				nd.Recursive = true
			}
		}
	}
}

// SameSCC reports whether two nodes are in the same strongly connected
// component (i.e. mutually recursive).
func (g *Graph) SameSCC(a, b int) bool { return g.Nodes[a].SCC == g.Nodes[b].SCC }

// ----------------------------------------------------------------------------
// Dominators (iterative Cooper–Harvey–Kennedy over a virtual root).

func (g *Graph) computeDominators() {
	n := len(g.Nodes)
	// Reverse postorder from a virtual root that precedes all start nodes.
	rpo := g.ReversePostorder()
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, v := range rpo {
		rpoNum[v] = i
	}

	const virtualRoot = -1
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -2 // unset
	}
	for _, s := range g.Starts {
		idom[s] = virtualRoot
	}

	intersect := func(a, b int) int {
		for a != b {
			if a == virtualRoot || b == virtualRoot {
				return virtualRoot
			}
			for a != b && rpoNum[a] > rpoNum[b] {
				a = idom[a]
				if a == virtualRoot {
					break
				}
			}
			for a != b && a != virtualRoot && rpoNum[b] > rpoNum[a] {
				b = idom[b]
				if b == virtualRoot {
					break
				}
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		for _, v := range rpo {
			if idom[v] == virtualRoot && isStart(g, v) {
				continue
			}
			newIdom := -2
			for _, e := range g.Nodes[v].In {
				p := e.From
				if idom[p] == -2 {
					continue // predecessor not yet processed
				}
				if newIdom == -2 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom == -2 {
				continue
			}
			if idom[v] != newIdom {
				idom[v] = newIdom
				changed = true
			}
		}
	}

	for _, nd := range g.Nodes {
		nd.IDom = idom[nd.ID]
		if nd.IDom == -2 {
			nd.IDom = virtualRoot // unreachable; treat as its own start
		}
	}
	// Dominator tree depths.
	var depth func(v int) int
	memo := make([]int, n)
	for i := range memo {
		memo[i] = -1
	}
	depth = func(v int) int {
		if v == virtualRoot {
			return 0
		}
		if memo[v] >= 0 {
			return memo[v]
		}
		memo[v] = 0 // cycle guard (cannot happen in a valid dom tree)
		d := depth(g.Nodes[v].IDom) + 1
		memo[v] = d
		return d
	}
	for _, nd := range g.Nodes {
		nd.DomDepth = depth(nd.ID)
	}
}

func isStart(g *Graph, v int) bool {
	if v < len(g.startSet)*64 {
		return g.startSet.Has(v)
	}
	for _, s := range g.Starts {
		if s == v {
			return true
		}
	}
	return false
}

// Dominates reports whether a dominates b (every path from a start node to
// b passes through a). A node dominates itself.
func (g *Graph) Dominates(a, b int) bool {
	for b != -1 {
		if a == b {
			return true
		}
		b = g.Nodes[b].IDom
	}
	return false
}

// recomputeOrders refreshes the cached reverse postorder and the start-node
// bit set. It must run after any mutation of the node set, edge set, or
// Starts (Build and AddSyntheticCaller both call it).
func (g *Graph) recomputeOrders() {
	n := len(g.Nodes)
	g.startSet = ir.NewBitSet(n)
	for _, s := range g.Starts {
		g.startSet.Set(s)
	}

	visited := make([]bool, n)
	post := make([]int, 0, n)
	// Iterative DFS: generated call graphs reach tens of thousands of
	// nodes, and recursion depth tracks the longest call chain.
	type frame struct{ v, ei int }
	var stack []frame
	dfs := func(root int) {
		visited[root] = true
		stack = append(stack[:0], frame{v: root})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.ei < len(g.Nodes[f.v].Out) {
				w := g.Nodes[f.v].Out[f.ei].To
				f.ei++
				if !visited[w] {
					visited[w] = true
					stack = append(stack, frame{v: w})
				}
				continue
			}
			post = append(post, f.v)
			stack = stack[:len(stack)-1]
		}
	}
	for _, s := range g.Starts {
		if !visited[s] {
			dfs(s)
		}
	}
	for v := 0; v < n; v++ {
		if !visited[v] {
			dfs(v)
		}
	}
	g.rpo = make([]int, len(post))
	for i, v := range post {
		g.rpo[len(post)-1-i] = v
	}
}

// ReversePostorder returns node IDs in reverse postorder of a DFS from the
// start nodes (callers before callees on acyclic paths). Unreachable nodes
// are appended at the end. The order is computed once per graph mutation;
// callers receive a copy they may reorder freely.
func (g *Graph) ReversePostorder() []int {
	if len(g.rpo) != len(g.Nodes) {
		g.recomputeOrders() // hand-assembled graph: derive orders on demand
	}
	out := make([]int, len(g.rpo))
	copy(out, g.rpo)
	return out
}

// Postorder returns node IDs in postorder (callees before callers on
// acyclic paths) — the "depth-first (bottom-up) order" of §4.1.2. Like
// ReversePostorder, it reverses the cached order into a fresh slice.
func (g *Graph) Postorder() []int {
	if len(g.rpo) != len(g.Nodes) {
		g.recomputeOrders()
	}
	out := make([]int, len(g.rpo))
	for i, v := range g.rpo {
		out[len(g.rpo)-1-i] = v
	}
	return out
}

// ----------------------------------------------------------------------------
// Call count estimation

// EstimateCounts assigns Edge.Count and Node.Count from the raw local
// frequencies, normalizing over the whole call graph as §6.2 describes:
// the analyzer "normalizes the raw heuristic call counts obtained from the
// summary files over the entire program call graph, increasing the weights
// on recursive arcs and arcs to leaf nodes."
func (g *Graph) EstimateCounts() {
	// Damped relative propagation from the start nodes. Node frequencies
	// are computed iteratively; cycles are bounded by the damping factor.
	for _, nd := range g.Nodes {
		nd.Count = 0
	}
	for _, s := range g.Starts {
		g.Nodes[s].Count = 1
	}

	const rounds = 12
	next := make([]float64, len(g.Nodes))
	for r := 0; r < rounds; r++ {
		for i := range next {
			next[i] = 0
		}
		for _, s := range g.Starts {
			next[s] = 1
		}
		for _, nd := range g.Nodes {
			for _, e := range nd.Out {
				w := float64(e.LocalFreq)
				if w <= 0 {
					w = 1
				}
				// Boost recursive arcs: a call inside a cycle repeats.
				if g.SameSCC(e.From, e.To) {
					w *= 8
				}
				// Boost arcs to leaves: leaf calls dominate dynamically.
				if len(g.Nodes[e.To].Out) == 0 {
					w *= 2
				}
				contribution := nd.Count * w
				// Damp to guarantee convergence on cyclic graphs.
				if contribution > 1e12 {
					contribution = 1e12
				}
				next[e.To] += contribution
			}
		}
		for i, nd := range g.Nodes {
			if next[i] > nd.Count {
				nd.Count = next[i]
			}
		}
	}

	for _, nd := range g.Nodes {
		for _, e := range nd.Out {
			w := float64(e.LocalFreq)
			if w <= 0 {
				w = 1
			}
			if g.SameSCC(e.From, e.To) {
				w *= 8
			}
			if len(g.Nodes[e.To].Out) == 0 {
				w *= 2
			}
			e.Count = nd.Count * w
		}
	}
}

// ApplyProfile overrides the heuristic counts with exact profiled counts
// (§7.5): a node's count is the sum of the profile's arcs into it.
// Edges absent from the profile get count 0; nodes keep a tiny epsilon so
// priority functions never divide by zero.
func (g *Graph) ApplyProfile(p *parv.Profile) {
	calls := make(map[string]uint64)
	for k, n := range p.Edges {
		calls[k.Callee] += n
	}
	for _, nd := range g.Nodes {
		nd.Count = float64(calls[nd.Name])
		if isStart(g, nd.ID) && nd.Count == 0 {
			nd.Count = 1
		}
		for _, e := range nd.Out {
			e.Count = float64(p.Edges[parv.EdgeKey{Caller: nd.Name, Callee: g.Nodes[e.To].Name}])
		}
	}
}
