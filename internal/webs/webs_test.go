package webs_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ipra/internal/callgraph"
	"ipra/internal/refsets"
	"ipra/internal/summary"
	"ipra/internal/webs"
)

// randomProgram builds a random call graph summary with global references.
func randomProgram(rng *rand.Rand, n, nvars int) []*summary.ModuleSummary {
	ms := &summary.ModuleSummary{Module: "m.mc"}
	for i := 0; i < n; i++ {
		rec := summary.ProcRecord{Name: fmt.Sprintf("p%d", i), Module: "m.mc"}
		nc := rng.Intn(3)
		for c := 0; c < nc; c++ {
			rec.Calls = append(rec.Calls, summary.CallSite{
				Callee: fmt.Sprintf("p%d", rng.Intn(n)), Freq: int64(1 + rng.Intn(10)),
			})
		}
		for v := 0; v < nvars; v++ {
			if rng.Intn(4) == 0 {
				rec.GlobalRefs = append(rec.GlobalRefs, summary.GlobalRef{
					Name: fmt.Sprintf("g%d", v), Freq: int64(1 + rng.Intn(20)),
					Reads: 1, Writes: int64(rng.Intn(2)),
				})
			}
		}
		ms.Procs = append(ms.Procs, rec)
	}
	for v := 0; v < nvars; v++ {
		ms.Globals = append(ms.Globals, summary.GlobalInfo{
			Name: fmt.Sprintf("g%d", v), Module: "m.mc", Size: 4, Defined: true, Scalar: true,
		})
	}
	return []*summary.ModuleSummary{ms}
}

// TestWebInvariantsOnRandomGraphs property-checks §4.1.2's correctness
// conditions over randomly generated programs:
//
//   - every web passes Validate (entry nodes have only external
//     predecessors, internal nodes only internal ones, and no member calls
//     an external procedure that references the variable);
//   - webs of the same variable are node-disjoint;
//   - every procedure that references a variable is in exactly one of its
//     webs.
func TestWebInvariantsOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(1990))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(14)
		nvars := 1 + rng.Intn(4)
		g, err := callgraph.Build(randomProgram(rng, n, nvars))
		if err != nil {
			t.Fatal(err)
		}
		g.EstimateCounts()
		sets := refsets.Compute(g, refsets.EligibleGlobals(g))
		ws := webs.Identify(g, sets)

		for _, w := range ws {
			if err := webs.Validate(g, sets, w); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		// Disjointness per variable.
		for vi, v := range sets.Vars {
			owner := map[int]int{}
			for _, w := range ws {
				if w.Var != v {
					continue
				}
				for _, id := range w.NodeIDs() {
					if prev, dup := owner[id]; dup {
						t.Fatalf("trial %d: node %d in webs %d and %d for %s",
							trial, id, prev, w.ID, v)
					}
					owner[id] = w.ID
				}
			}
			// Coverage: every L_REF node is in some web.
			for _, nd := range g.Nodes {
				if sets.LRef[nd.ID].Has(vi) {
					if _, ok := owner[nd.ID]; !ok {
						t.Fatalf("trial %d: node %s references %s but is in no web",
							trial, nd.Name, v)
					}
				}
			}
		}
	}
}

// TestColoringInvariants checks that interfering webs never share a
// register and colored counts are consistent, over random programs.
func TestColoringInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(12)
		g, err := callgraph.Build(randomProgram(rng, n, 3))
		if err != nil {
			t.Fatal(err)
		}
		g.EstimateCounts()
		sets := refsets.Compute(g, refsets.EligibleGlobals(g))
		ws := webs.Identify(g, sets)
		webs.ComputePriorities(g, sets, ws)
		webs.Filter(ws, true)
		k := 1 + rng.Intn(4)
		colored := webs.Color(ws, k)

		count := 0
		for _, w := range ws {
			if w.Discarded {
				if w.Color >= 0 {
					t.Fatalf("trial %d: discarded web got a color", trial)
				}
				continue
			}
			if w.Color >= k {
				t.Fatalf("trial %d: color %d out of range %d", trial, w.Color, k)
			}
			if w.Color >= 0 {
				count++
			}
		}
		if count != colored {
			t.Fatalf("trial %d: Color reported %d, actual %d", trial, colored, count)
		}
		for _, a := range ws {
			for _, b := range ws {
				if a.Color >= 0 && b.Color >= 0 && a.Color == b.Color && webs.Interfere(a, b) {
					t.Fatalf("trial %d: interfering webs share color %d", trial, a.Color)
				}
			}
		}
	}
}

// TestGreedyColoringRespectsNeed checks that greedy coloring never packs
// more webs onto a node than the register file allows given the node's own
// requirement.
func TestGreedyColoringRespectsNeed(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(10)
		g, err := callgraph.Build(randomProgram(rng, n, 4))
		if err != nil {
			t.Fatal(err)
		}
		g.EstimateCounts()
		sets := refsets.Compute(g, refsets.EligibleGlobals(g))
		ws := webs.Identify(g, sets)
		webs.ComputePriorities(g, sets, ws)
		webs.Filter(ws, true)

		need := func(id int) int { return id % 5 }
		total := 8
		webs.GreedyColor(ws, g, need, total)

		perNode := map[int]int{}
		for _, w := range ws {
			if w.Color < 0 {
				continue
			}
			for _, id := range w.NodeIDs() {
				perNode[id]++
			}
		}
		for id, cnt := range perNode {
			if cnt+need(id) > total {
				t.Fatalf("trial %d: node %d has %d webs + need %d > %d",
					trial, id, cnt, need(id), total)
			}
		}
	}
}

// TestBlanketSelect checks [Wall 86]-style blanket promotion: the hottest
// globals each get a whole-program web rooted at the start nodes.
func TestBlanketSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := callgraph.Build(randomProgram(rng, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	g.EstimateCounts()
	sets := refsets.Compute(g, refsets.EligibleGlobals(g))
	ws := webs.Identify(g, sets)
	webs.ComputePriorities(g, sets, ws)
	webs.Filter(ws, true)

	bs := webs.BlanketSelect(g, sets, ws, 2)
	if len(bs) > 2 {
		t.Fatalf("selected %d blankets, want <= 2", len(bs))
	}
	for _, b := range bs {
		if !b.Blanket {
			t.Error("blanket web not marked")
		}
		if b.Size() != len(g.Nodes) {
			t.Errorf("blanket web covers %d of %d nodes", b.Size(), len(g.Nodes))
		}
		for _, s := range g.Starts {
			if !b.IsEntry(s) {
				t.Errorf("start node %d is not a blanket entry", s)
			}
		}
	}
	// Distinct registers per blanket.
	if len(bs) == 2 && bs[0].Color == bs[1].Color {
		t.Error("blanket webs share a register")
	}
	// A budget of one keeps only the hottest global.
	one := webs.BlanketSelect(g, sets, ws, 1)
	if len(one) != 1 || len(bs) == 0 || one[0].Var != bs[0].Var {
		t.Errorf("BlanketSelect(1) = %d webs, want the hottest of %d", len(one), len(bs))
	}
}

// TestRecursiveCycleWeb exercises the §4.1.2 special case: a global
// referenced only inside a recursive cycle still gets a web.
func TestRecursiveCycleWeb(t *testing.T) {
	ms := &summary.ModuleSummary{Module: "m.mc", Procs: []summary.ProcRecord{
		{Name: "main", Module: "m.mc", Calls: []summary.CallSite{{Callee: "a", Freq: 1}}},
		{Name: "a", Module: "m.mc",
			GlobalRefs: []summary.GlobalRef{{Name: "g", Freq: 5, Reads: 5}},
			Calls:      []summary.CallSite{{Callee: "b", Freq: 1}}},
		{Name: "b", Module: "m.mc",
			GlobalRefs: []summary.GlobalRef{{Name: "g", Freq: 5, Reads: 5}},
			Calls:      []summary.CallSite{{Callee: "a", Freq: 1}}},
	}, Globals: []summary.GlobalInfo{
		{Name: "g", Module: "m.mc", Size: 4, Defined: true, Scalar: true},
	}}
	g, err := callgraph.Build([]*summary.ModuleSummary{ms})
	if err != nil {
		t.Fatal(err)
	}
	g.EstimateCounts()
	sets := refsets.Compute(g, refsets.EligibleGlobals(g))
	ws := webs.Identify(g, sets)
	if len(ws) != 1 {
		t.Fatalf("got %d webs: %v", len(ws), ws)
	}
	w := ws[0]
	// a and b are mutually recursive with g in P_REF everywhere; the cycle
	// rule creates the web and enlargement pulls nothing else in (main
	// doesn't reference g)... but a has an external predecessor (main), so
	// a must be an entry with main outside, or the web grew to main.
	if err := webs.Validate(g, sets, w); err != nil {
		t.Fatal(err)
	}
	if !w.Contains(g.NodeByName("a").ID) || !w.Contains(g.NodeByName("b").ID) {
		t.Errorf("cycle nodes missing from web: %v", w)
	}
}

// TestWebCensusShape checks the §6.2 shape on a deterministic random
// program: more webs than globals is common, a nonzero fraction is
// discarded, and most considered webs color with 6 registers.
func TestWebCensusShape(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	g, err := callgraph.Build(randomProgram(rng, 60, 40))
	if err != nil {
		t.Fatal(err)
	}
	g.EstimateCounts()
	sets := refsets.Compute(g, refsets.EligibleGlobals(g))
	ws := webs.Identify(g, sets)
	webs.ComputePriorities(g, sets, ws)
	webs.Filter(ws, false)

	considered := 0
	for _, w := range ws {
		if !w.Discarded {
			considered++
		}
	}
	colored := webs.Color(ws, 6)
	t.Logf("globals=%d webs=%d considered=%d colored=%d",
		len(sets.Vars), len(ws), considered, colored)
	if len(ws) < len(sets.Vars) {
		t.Errorf("webs (%d) should be at least the variable count (%d)", len(ws), len(sets.Vars))
	}
	if colored > considered {
		t.Error("colored more webs than considered")
	}
}
