// The analyzer state: the intermediate artifacts of one program analysis
// (call graph with cached orders, reference-set columns, per-variable
// webs, pruned spill clusters), stamped with per-module summary hashes,
// and its encoding as an internal/wire artifact. No build reads or writes
// it: the analyzer re-runs whole on every build. The benchmark module
// (benchmark/replay.go) still encodes and decodes one per traced run for
// its per-layer core.state_* metrics, so State, NewState, Encode and
// DecodeState stay, encoding exactly as they did when build directories
// stored the state, until that probe goes.
//
// The encoding is deliberately explicit. Per-node In edge lists are
// serialized as (from-node, out-index) pairs rather than re-derived,
// because downstream float summations iterate In edges in creation order.
package core

import (
	"fmt"
	"sort"
	"strings"

	"ipra/internal/callgraph"
	"ipra/internal/clusters"
	"ipra/internal/ir"
	"ipra/internal/refsets"
	"ipra/internal/summary"
	"ipra/internal/webs"
	"ipra/internal/wire"
)

// Wire kind and body version of the analyzer state. A state of any other
// kind or version fails to decode. v2: summary stamps hash the summaries'
// wire encoding, not their JSON.
const (
	stateKind    = "analyzer-state"
	stateVersion = 2
)

// moduleStamp records what the analysis saw of one module: its summary
// hash, each procedure's record hash, and the module's sorted contribution
// to the program-wide address-taken set.
type moduleStamp struct {
	Name      string
	Hash      string
	Procs     []string
	RecHashes []string
	AddrTaken []string
}

// State is the analyzer state of one finished analysis. The benchmark
// module holds it (see the file comment); nothing else in the toolchain
// builds one.
type State struct {
	optKey      string
	unsupported string // non-empty: a program shape stamped without its artifacts
	stamps      []moduleStamp

	g        *callgraph.Graph
	sets     *refsets.Sets
	perVar   [][]*webs.Web // identified webs grouped by variable index
	clusters *clusters.Identification
	needs    []int // needFunc value per node at build time
}

// ReuseStats is the shape of the rebuild record the incremental analyzer
// kept. The benchmark module reads it from incremental.Outcome.Analyzer,
// which is now always nil; it stays until that read goes.
type ReuseStats struct {
	Fallback                string
	WebsReused, WebsRebuilt int
}

// optionsKey fingerprints every option that shapes analyzer output, the
// first string of an encoded state. Jobs, which shapes nothing, is
// excluded, and of the profile only its presence counts.
func optionsKey(opt Options) string {
	strat := opt.Strategy
	if strat == "" {
		strat = DefaultStrategyName
	}
	return fmt.Sprintf("v3|sm=%t|pm=%d|cr=%d|bc=%d|pp=%t|mw=%t|prof=%t|csp=%t|strat=%s",
		opt.SpillMotion, opt.Promotion, PromotionRegs, PromotionRegs,
		opt.PartialProgram, opt.MergeWebs,
		opt.Profile != nil, opt.CallerSavesPreallocation, strings.ToLower(strat))
}

// makeStamp summarizes one module.
func makeStamp(ms *summary.ModuleSummary) moduleStamp {
	st := moduleStamp{
		Name:      ms.Module,
		Hash:      summary.Hash(ms),
		Procs:     make([]string, len(ms.Procs)),
		RecHashes: make([]string, len(ms.Procs)),
	}
	at := make(map[string]bool)
	for i := range ms.Procs {
		st.Procs[i] = ms.Procs[i].Name
		st.RecHashes[i] = summary.RecordHash(&ms.Procs[i])
		for _, name := range ms.Procs[i].AddrTakenProcs {
			at[name] = true
		}
	}
	if len(at) > 0 {
		st.AddrTaken = make([]string, 0, len(at))
		for name := range at {
			st.AddrTaken = append(st.AddrTaken, name)
		}
		sort.Strings(st.AddrTaken)
	}
	return st
}

// NewState captures the analyzer state of a finished analysis. Program
// shapes whose artifacts a state cannot replay per variable — duplicate
// procedure definitions, merged webs, partial programs — are stamped
// without them and marked unsupported.
func NewState(res *Result, summaries []*summary.ModuleSummary, opt Options) *State {
	st := &State{
		optKey:   optionsKey(opt),
		stamps:   make([]moduleStamp, len(summaries)),
		g:        res.Graph,
		sets:     res.Sets,
		clusters: res.Clusters,
	}
	procSeen := make(map[string]bool)
	for i, ms := range summaries {
		st.stamps[i] = makeStamp(ms)
		for j := range ms.Procs {
			if procSeen[ms.Procs[j].Name] {
				st.unsupported = "duplicate procedure " + ms.Procs[j].Name
			}
			procSeen[ms.Procs[j].Name] = true
		}
	}
	switch {
	case st.unsupported != "":
	case opt.MergeWebs:
		st.unsupported = "web merging rewrites webs across variables"
	case opt.PartialProgram:
		st.unsupported = "partial-program analysis adds a synthetic caller"
	}
	if st.unsupported != "" {
		return st
	}

	need := needFunc(res.Graph)
	st.needs = make([]int, len(res.Graph.Nodes))
	for i := range st.needs {
		st.needs[i] = need(i)
	}

	st.perVar = make([][]*webs.Web, len(res.Sets.Vars))
	lastVar := -1
	for _, w := range res.Webs {
		vi, ok := res.Sets.Index[w.Var]
		if !ok || vi < lastVar {
			// Webs are produced grouped in variable-index order; anything
			// else means the set was rewritten by a pass this state cannot
			// replay per variable.
			st.unsupported = "web list is not grouped by variable"
			return st
		}
		lastVar = vi
		st.perVar[vi] = append(st.perVar[vi], w)
	}
	return st
}

// Encode serializes the state as an analyzer-state wire artifact.
func (st *State) Encode() []byte {
	e := wire.NewEncoder(stateKind, stateVersion)
	e.Str(st.optKey)
	e.Str(st.unsupported)
	e.U(uint64(len(st.stamps)))
	for i := range st.stamps {
		m := &st.stamps[i]
		e.Str(m.Name)
		e.Str(m.Hash)
		e.Strs(m.Procs)
		e.Strs(m.RecHashes)
		e.Strs(m.AddrTaken)
	}
	if st.unsupported != "" {
		return e.Finish()
	}

	g := st.g
	e.U(uint64(len(g.Nodes)))
	for _, nd := range g.Nodes {
		e.Str(nd.Name)
		e.Str(nd.Module)
		e.U(uint64(nd.SCC))
		e.Bool(nd.Recursive)
		e.I(int64(nd.IDom))
		e.U(uint64(nd.DomDepth))
		e.F64(nd.Count)
	}
	for _, nd := range g.Nodes {
		e.U(uint64(len(nd.Out)))
		for _, edge := range nd.Out {
			e.U(uint64(edge.To))
			e.I(edge.LocalFreq)
			e.Bool(edge.Indirect)
			e.F64(edge.Count)
		}
	}
	outIdx := make(map[*callgraph.Edge]int)
	for _, nd := range g.Nodes {
		for k, oe := range nd.Out {
			outIdx[oe] = k
		}
	}
	for _, nd := range g.Nodes {
		e.U(uint64(len(nd.In)))
		for _, edge := range nd.In {
			e.U(uint64(edge.From))
			e.U(uint64(outIdx[edge]))
		}
	}
	e.Ints(g.Starts)
	for _, v := range st.needs {
		e.I(int64(v))
	}

	// Each reference-set family is one word list: its rows, n × words.
	sets := st.sets
	e.Strs(sets.Vars)
	words := len(ir.NewBitSet(len(sets.Vars)))
	e.U(uint64(words))
	rows := make([]uint64, 0, len(g.Nodes)*words)
	for _, fam := range [][]ir.BitSet{sets.LRef, sets.PRef, sets.CRef} {
		rows = rows[:0]
		for _, bs := range fam {
			rows = append(rows, bs...)
		}
		e.Words(rows)
	}

	var ids []int
	for _, ws := range st.perVar {
		e.U(uint64(len(ws)))
		for _, w := range ws {
			e.Bool(w.FromCycle)
			e.F64(w.Priority)
			e.F64(w.RefWeight)
			e.F64(w.EntryWeight)
			e.U(uint64(w.LRefNodes))
			e.Ints(w.Entries)
			ids = w.Nodes.Elems(ids[:0])
			e.Ints(ids)
		}
	}

	e.Bool(st.clusters != nil)
	if st.clusters != nil {
		e.U(uint64(len(st.clusters.Clusters)))
		for _, c := range st.clusters.Clusters {
			e.U(uint64(c.Root))
			e.Ints(c.Members)
		}
		members := make([]int, 0, len(st.clusters.MemberRoot))
		for m := range st.clusters.MemberRoot {
			members = append(members, m)
		}
		sort.Ints(members)
		e.U(uint64(len(members)))
		for _, m := range members {
			e.U(uint64(m))
			e.U(uint64(st.clusters.MemberRoot[m]))
		}
	}
	return e.Finish()
}

// DecodeState rebuilds a State from Encode's output. Node Rec pointers
// and the merged global table are not serialized.
//
// Every node and variable index the state carries is checked against the
// node and variable counts, and the dominator tree must be a forest: a
// corrupt state is a decode error, never a state that panics its reader.
func DecodeState(data []byte) (*State, error) {
	d, err := wire.NewDecoder(data, stateKind, stateVersion)
	if err != nil {
		return nil, err
	}
	corrupt := func(what string) (*State, error) {
		return nil, fmt.Errorf("core: corrupt analyzer state: %s", what)
	}
	st := &State{
		optKey:      d.Str(),
		unsupported: d.Str(),
	}
	st.stamps = make([]moduleStamp, d.Count(1))
	for i := range st.stamps {
		m := &st.stamps[i]
		m.Name = d.Str()
		m.Hash = d.Str()
		m.Procs = d.Strs()
		m.RecHashes = d.Strs()
		m.AddrTaken = d.Strs()
		if len(m.RecHashes) != len(m.Procs) {
			return corrupt("stamp record hashes")
		}
	}
	if st.unsupported != "" {
		if err := d.Finish(); err != nil {
			return nil, err
		}
		return st, nil
	}

	n := d.Count(1)
	inRange := func(id int) bool { return id >= 0 && id < n }
	nodes := make([]*callgraph.Node, n)
	// Decoded records are slab-allocated: the node count is known up
	// front, and edges are carved from chunks, so a decode allocates per
	// slab rather than per record.
	nodeSlab := make([]callgraph.Node, n)
	for id := range nodes {
		nodes[id] = &nodeSlab[id]
		*nodes[id] = callgraph.Node{
			ID:        id,
			Name:      d.Str(),
			Module:    d.Str(),
			SCC:       int(d.U()),
			Recursive: d.Bool(),
			IDom:      int(d.I()),
			DomDepth:  int(d.U()),
			Count:     d.F64(),
		}
		if !inRange(nodes[id].SCC) {
			return corrupt("SCC id")
		}
	}
	// Dominator depths must grow by one along every IDom link, which also
	// rules out IDom cycles (Dominates walks the chain to the root).
	for _, nd := range nodes {
		switch {
		case nd.IDom == -1 && nd.DomDepth == 1:
		case inRange(nd.IDom) && nd.DomDepth == nodes[nd.IDom].DomDepth+1:
		default:
			return corrupt("dominator tree")
		}
	}
	var edgeSlab []callgraph.Edge
	for id := range nodes {
		m := d.Count(1)
		if m == 0 {
			continue
		}
		nodes[id].Out = make([]*callgraph.Edge, m)
		for k := range nodes[id].Out {
			if len(edgeSlab) == 0 {
				edgeSlab = make([]callgraph.Edge, 1024)
			}
			e := &edgeSlab[0]
			edgeSlab = edgeSlab[1:]
			*e = callgraph.Edge{
				From:      id,
				To:        int(d.U()),
				LocalFreq: d.I(),
				Indirect:  d.Bool(),
				Count:     d.F64(),
			}
			if !inRange(e.To) {
				return corrupt("edge target")
			}
			nodes[id].Out[k] = e
		}
	}
	for id := range nodes {
		m := d.Count(1)
		if m == 0 {
			continue
		}
		nodes[id].In = make([]*callgraph.Edge, m)
		for k := range nodes[id].In {
			from := int(d.U())
			outIdx := int(d.U())
			if !inRange(from) || outIdx < 0 || outIdx >= len(nodes[from].Out) || nodes[from].Out[outIdx].To != id {
				return corrupt("in-edge")
			}
			nodes[id].In[k] = nodes[from].Out[outIdx]
		}
	}
	starts := d.Ints()
	for _, s := range starts {
		if !inRange(s) {
			return corrupt("start node")
		}
	}
	st.needs = make([]int, n)
	for i := range st.needs {
		st.needs[i] = int(d.I())
	}
	st.g = callgraph.Restore(nodes, starts)

	vars := d.Strs()
	sets := &refsets.Sets{Vars: vars, Index: make(map[string]int, len(vars))}
	for i, v := range vars {
		sets.Index[v] = i
	}
	if len(sets.Index) != len(vars) {
		return corrupt("duplicate variable")
	}
	words := d.Count(8)
	if words != len(ir.NewBitSet(len(vars))) {
		return corrupt("reference-set width")
	}
	// Each family's word list is its backing array, rows carved from it.
	// No row may hold a bit at or beyond the variable count.
	tail := uint(len(vars) % 64)
	var fams [3][]ir.BitSet
	for f := range fams {
		backing := d.Words()
		// n and words are each bounded by the input, their product is
		// not: compare in 64 bits.
		if uint64(len(backing)) != uint64(n)*uint64(words) {
			return corrupt("reference-set size")
		}
		fams[f] = make([]ir.BitSet, n)
		for i := range fams[f] {
			row := backing[i*words : (i+1)*words : (i+1)*words]
			if row[words-1]>>tail != 0 {
				return corrupt("reference-set variable")
			}
			fams[f][i] = row
		}
	}
	sets.LRef, sets.PRef, sets.CRef = fams[0], fams[1], fams[2]
	st.sets = sets

	st.perVar = make([][]*webs.Web, len(vars))
	var webSlab []webs.Web
	var webBits ir.BitArena
	for vi := range st.perVar {
		m := d.Count(1)
		if m == 0 {
			continue
		}
		st.perVar[vi] = make([]*webs.Web, m)
		for k := range st.perVar[vi] {
			if len(webSlab) == 0 {
				webSlab = make([]webs.Web, 64)
			}
			w := &webSlab[0]
			webSlab = webSlab[1:]
			*w = webs.Web{Var: vars[vi], Color: -1}
			w.FromCycle = d.Bool()
			w.Priority = d.F64()
			w.RefWeight = d.F64()
			w.EntryWeight = d.F64()
			w.LRefNodes = int(d.U())
			w.Entries = d.Ints()
			for _, id := range w.Entries {
				if !inRange(id) {
					return corrupt("web entry")
				}
			}
			w.Nodes = webBits.New(n)
			for _, id := range d.Ints() {
				if !inRange(id) {
					return corrupt("web node")
				}
				w.Nodes.Set(id)
			}
			st.perVar[vi][k] = w
		}
	}

	if d.Bool() {
		id := &clusters.Identification{
			RootCluster: make(map[int]*clusters.Cluster),
			MemberRoot:  make(map[int]int),
		}
		id.Clusters = make([]*clusters.Cluster, d.Count(1))
		for k := range id.Clusters {
			c := &clusters.Cluster{Root: int(d.U()), Members: d.Ints()}
			if !inRange(c.Root) {
				return corrupt("cluster root")
			}
			for _, m := range c.Members {
				if !inRange(m) {
					return corrupt("cluster member")
				}
			}
			id.Clusters[k] = c
			id.RootCluster[c.Root] = c
		}
		pairs := d.Count(2)
		for k := 0; k < pairs; k++ {
			m, r := int(d.U()), int(d.U())
			if !inRange(m) || !inRange(r) {
				return corrupt("cluster member root")
			}
			id.MemberRoot[m] = r
		}
		st.clusters = id
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return st, nil
}
