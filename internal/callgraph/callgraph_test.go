package callgraph

import (
	"fmt"
	"math/rand"
	"testing"

	"ipra/internal/parv"
	"ipra/internal/summary"
)

// summariesFromEdges builds a one-module summary set for an edge list over
// procedures p0..p(n-1). refs maps procedure index to referenced globals.
func summariesFromEdges(n int, edges [][2]int, refs map[int][]string) []*summary.ModuleSummary {
	ms := &summary.ModuleSummary{Module: "m.mc"}
	gset := map[string]bool{}
	for i := 0; i < n; i++ {
		rec := summary.ProcRecord{Name: fmt.Sprintf("p%d", i), Module: "m.mc"}
		for _, e := range edges {
			if e[0] == i {
				rec.Calls = append(rec.Calls, summary.CallSite{Callee: fmt.Sprintf("p%d", e[1]), Freq: 1})
			}
		}
		for _, g := range refs[i] {
			rec.GlobalRefs = append(rec.GlobalRefs, summary.GlobalRef{Name: g, Freq: 1, Reads: 1})
			gset[g] = true
		}
		ms.Procs = append(ms.Procs, rec)
	}
	for g := range gset {
		ms.Globals = append(ms.Globals, summary.GlobalInfo{
			Name: g, Module: "m.mc", Size: 4, Defined: true, Scalar: true,
		})
	}
	return []*summary.ModuleSummary{ms}
}

func mustBuild(t *testing.T, n int, edges [][2]int) *Graph {
	t.Helper()
	g, err := Build(summariesFromEdges(n, edges, nil))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStartNodes(t *testing.T) {
	g := mustBuild(t, 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 2}})
	if len(g.Starts) != 2 {
		t.Fatalf("starts = %v, want p0 and p3", g.Starts)
	}
}

func TestWholeCycleFallsBackToEntry(t *testing.T) {
	// All nodes in one cycle: no node without predecessors.
	g := mustBuild(t, 3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	if len(g.Starts) != 1 {
		t.Fatalf("starts = %v", g.Starts)
	}
}

func TestSCC(t *testing.T) {
	// 0 -> 1 <-> 2 -> 3, 3 -> 3 (self loop)
	g := mustBuild(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 1}, {2, 3}, {3, 3}})
	if !g.SameSCC(1, 2) {
		t.Error("1 and 2 are mutually recursive")
	}
	if g.SameSCC(0, 1) {
		t.Error("0 is not in the cycle")
	}
	if !g.Nodes[1].Recursive || !g.Nodes[2].Recursive {
		t.Error("cycle nodes not marked recursive")
	}
	if !g.Nodes[3].Recursive {
		t.Error("self-loop not marked recursive")
	}
	if g.Nodes[0].Recursive {
		t.Error("0 wrongly recursive")
	}
}

// reachableWithout computes which nodes are reachable from the starts
// without passing through the removed node.
func reachableWithout(g *Graph, removed int) map[int]bool {
	seen := map[int]bool{}
	var stack []int
	for _, s := range g.Starts {
		if s != removed {
			stack = append(stack, s)
			seen[s] = true
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Nodes[v].Out {
			if e.To != removed && !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// TestDominatorsAgainstDefinition property-checks the dominator relation
// on random graphs: a dominates b iff removing a disconnects b from every
// start node.
func TestDominatorsAgainstDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(10)
		var edges [][2]int
		for i := 0; i < n*2; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				edges = append(edges, [2]int{a, b})
			}
		}
		g := mustBuild(t, n, edges)

		all := reachableWithout(g, -1)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b || !all[b] {
					continue // dominance over unreachable nodes is vacuous
				}
				wantDom := !reachableWithout(g, a)[b]
				if got := g.Dominates(a, b); got != wantDom {
					t.Fatalf("trial %d: Dominates(%d,%d) = %v, want %v (edges %v, starts %v)",
						trial, a, b, got, wantDom, edges, g.Starts)
				}
			}
		}
	}
}

// TestSCCAgainstDefinition property-checks SCCs via mutual reachability.
func TestSCCAgainstDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	reach := func(g *Graph, from int) map[int]bool {
		seen := map[int]bool{from: true}
		stack := []int{from}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.Nodes[v].Out {
				if !seen[e.To] {
					seen[e.To] = true
					stack = append(stack, e.To)
				}
			}
		}
		return seen
	}
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(9)
		var edges [][2]int
		for i := 0; i < n*2; i++ {
			edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		// Drop self-edges from the generator; they are legal but make the
		// mutual-reachability oracle awkward.
		var clean [][2]int
		for _, e := range edges {
			if e[0] != e[1] {
				clean = append(clean, e)
			}
		}
		g := mustBuild(t, n, clean)
		for a := 0; a < n; a++ {
			ra := reach(g, a)
			for b := 0; b < n; b++ {
				mutual := ra[b] && reach(g, b)[a]
				if got := g.SameSCC(a, b); got != mutual {
					t.Fatalf("trial %d: SameSCC(%d,%d)=%v want %v (edges %v)", trial, a, b, got, mutual, clean)
				}
			}
		}
	}
}

func TestPostorderProperties(t *testing.T) {
	g := mustBuild(t, 5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}})
	rpo := g.ReversePostorder()
	pos := make(map[int]int)
	for i, v := range rpo {
		pos[v] = i
	}
	if len(rpo) != 5 {
		t.Fatalf("rpo misses nodes: %v", rpo)
	}
	// On a DAG, callers precede callees in RPO.
	for _, nd := range g.Nodes {
		for _, e := range nd.Out {
			if pos[e.From] > pos[e.To] {
				t.Errorf("edge %d->%d violates RPO %v", e.From, e.To, rpo)
			}
		}
	}
	post := g.Postorder()
	for i := range rpo {
		if rpo[i] != post[len(post)-1-i] {
			t.Fatal("Postorder is not the reverse of ReversePostorder")
		}
	}
}

func TestIndirectCallEdges(t *testing.T) {
	ms := &summary.ModuleSummary{Module: "m.mc", Procs: []summary.ProcRecord{
		{Name: "main", Module: "m.mc",
			Calls:              []summary.CallSite{{Callee: "a", Freq: 1}},
			MakesIndirectCalls: true, IndirectCallFreq: 10,
			AddrTakenProcs: []string{"a", "b"}},
		{Name: "a", Module: "m.mc"},
		{Name: "b", Module: "m.mc"},
	}}
	g, err := Build([]*summary.ModuleSummary{ms})
	if err != nil {
		t.Fatal(err)
	}
	// main must have edges to both address-taken procedures.
	targets := map[string]bool{}
	indirect := 0
	for _, e := range g.NodeByName("main").Out {
		targets[g.Nodes[e.To].Name] = true
		if e.Indirect {
			indirect++
		}
	}
	if !targets["a"] || !targets["b"] {
		t.Errorf("indirect targets missing: %v", targets)
	}
	if indirect != 2 {
		t.Errorf("indirect edges = %d, want 2", indirect)
	}
}

// TestAddrTakenResidueNodeOrder pins the node order of address-taken
// names that no module defines or calls directly: node IDs index every
// derived structure, so repeated builds of the same summaries must number
// them identically (sorted by name, after every other node).
func TestAddrTakenResidueNodeOrder(t *testing.T) {
	ms := &summary.ModuleSummary{Module: "m.mc", Procs: []summary.ProcRecord{
		{Name: "main", Module: "m.mc",
			Calls:              []summary.CallSite{{Callee: "putint", Freq: 1}},
			MakesIndirectCalls: true, IndirectCallFreq: 4,
			AddrTakenProcs: []string{"lib:d", "lib:b", "lib:c", "lib:a"}},
	}}
	want := []string{"main", "putint", "lib:a", "lib:b", "lib:c", "lib:d"}
	for i := 0; i < 50; i++ {
		g, err := Build([]*summary.ModuleSummary{ms})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(g.Nodes))
		for id, nd := range g.Nodes {
			got[id] = nd.Name
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("build %d: node order %v, want %v", i, got, want)
		}
	}
}

func TestExternalProceduresAreLeaves(t *testing.T) {
	ms := &summary.ModuleSummary{Module: "m.mc", Procs: []summary.ProcRecord{
		{Name: "main", Module: "m.mc", Calls: []summary.CallSite{{Callee: "putchar", Freq: 5}}},
	}}
	g, err := Build([]*summary.ModuleSummary{ms})
	if err != nil {
		t.Fatal(err)
	}
	pc := g.NodeByName("putchar")
	if pc == nil {
		t.Fatal("external callee has no node")
	}
	if pc.Rec != nil {
		t.Error("external callee should have no record")
	}
	if len(pc.Out) != 0 {
		t.Error("external callee should be a leaf")
	}
}

func TestEstimateCountsBasic(t *testing.T) {
	// main -> hot (freq 100); main -> cold (freq 1): hot ends up with the
	// larger estimated count.
	ms := &summary.ModuleSummary{Module: "m.mc", Procs: []summary.ProcRecord{
		{Name: "main", Module: "m.mc", Calls: []summary.CallSite{
			{Callee: "hot", Freq: 100}, {Callee: "cold", Freq: 1},
		}},
		{Name: "hot", Module: "m.mc"},
		{Name: "cold", Module: "m.mc"},
	}}
	g, err := Build([]*summary.ModuleSummary{ms})
	if err != nil {
		t.Fatal(err)
	}
	g.EstimateCounts()
	if g.NodeByName("hot").Count <= g.NodeByName("cold").Count {
		t.Errorf("hot (%f) should outweigh cold (%f)",
			g.NodeByName("hot").Count, g.NodeByName("cold").Count)
	}
	if g.NodeByName("main").Count != 1 {
		t.Errorf("start node count = %f, want 1", g.NodeByName("main").Count)
	}
}

func TestApplyProfile(t *testing.T) {
	g := mustBuild(t, 2, [][2]int{{0, 1}})
	prof := &parv.Profile{
		Edges: map[parv.EdgeKey]uint64{{Caller: "p0", Callee: "p1"}: 1234},
	}
	g.ApplyProfile(prof)
	if g.NodeByName("p1").Count != 1234 {
		t.Errorf("profiled count = %f", g.NodeByName("p1").Count)
	}
	if g.NodeByName("p0").Out[0].Count != 1234 {
		t.Errorf("profiled edge count = %f", g.NodeByName("p0").Out[0].Count)
	}
	if g.NodeByName("p0").Count != 1 {
		t.Errorf("unprofiled start should keep epsilon count, got %f", g.NodeByName("p0").Count)
	}
}

func TestGlobalMetaMerging(t *testing.T) {
	m1 := &summary.ModuleSummary{Module: "a.mc",
		Procs:   []summary.ProcRecord{{Name: "f", Module: "a.mc"}},
		Globals: []summary.GlobalInfo{{Name: "g", Module: "a.mc", Size: 4, Defined: true, Scalar: true}}}
	m2 := &summary.ModuleSummary{Module: "b.mc",
		Procs:   []summary.ProcRecord{{Name: "main", Module: "b.mc", Calls: []summary.CallSite{{Callee: "f", Freq: 1}}}},
		Globals: []summary.GlobalInfo{{Name: "g", Module: "b.mc", Size: 4, Scalar: true, AddrTaken: true}}}
	g, err := Build([]*summary.ModuleSummary{m1, m2})
	if err != nil {
		t.Fatal(err)
	}
	meta := g.Globals["g"]
	if meta == nil || !meta.Defined || !meta.AddrTaken || meta.Module != "a.mc" {
		t.Errorf("merged meta wrong: %+v", meta)
	}
}
