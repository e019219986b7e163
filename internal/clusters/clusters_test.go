package clusters_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ipra/internal/callgraph"
	"ipra/internal/clusters"
	"ipra/internal/parv"
	"ipra/internal/regs"
	"ipra/internal/summary"
)

func buildGraph(t *testing.T, edges map[string][]string, freqs map[string]int64, needs map[string]int) *callgraph.Graph {
	t.Helper()
	ms := &summary.ModuleSummary{Module: "m.mc"}
	seen := map[string]bool{}
	var names []string
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for from, tos := range edges {
		add(from)
		for _, to := range tos {
			add(to)
		}
	}
	for _, n := range names {
		rec := summary.ProcRecord{Name: n, Module: "m.mc", CalleeSavesNeeded: needs[n]}
		for _, to := range edges[n] {
			f := freqs[n+"->"+to]
			if f == 0 {
				f = 1
			}
			rec.Calls = append(rec.Calls, summary.CallSite{Callee: to, Freq: f})
		}
		ms.Procs = append(ms.Procs, rec)
	}
	g, err := callgraph.Build([]*summary.ModuleSummary{ms})
	if err != nil {
		t.Fatal(err)
	}
	g.EstimateCounts()
	return g
}

func need(g *callgraph.Graph) func(int) int {
	return func(n int) int {
		if g.Nodes[n].Rec == nil {
			return 0
		}
		return g.Nodes[n].Rec.CalleeSavesNeeded
	}
}

func noPromotion(int) regs.Set { return 0 }

// TestBasicCluster reproduces the Figure 4 situation: R calls S and T much
// more often than R itself is called, so R roots a cluster containing S
// and T and ends up with their registers in MSPILL.
func TestBasicCluster(t *testing.T) {
	g := buildGraph(t,
		map[string][]string{"main": {"R"}, "R": {"S", "T"}},
		map[string]int64{"R->S": 100, "R->T": 100},
		map[string]int{"R": 2, "S": 3, "T": 3})
	id := clusters.Identify(g)
	if err := clusters.Validate(g, id); err != nil {
		t.Fatal(err)
	}
	r := g.NodeByName("R").ID
	c := id.RootCluster[r]
	if c == nil {
		t.Fatalf("R is not a cluster root; clusters: %v", id.Clusters)
	}
	if !c.Contains(g.NodeByName("S").ID) || !c.Contains(g.NodeByName("T").ID) {
		t.Fatalf("S/T not members: %v", c)
	}

	asn := clusters.ComputeSets(g, id, need(g), noPromotion)
	ss := asn.Sets[g.NodeByName("S").ID]
	ts := asn.Sets[g.NodeByName("T").ID]
	if ss.Free.Count() != 3 || ts.Free.Count() != 3 {
		t.Errorf("members got FREE %s and %s, want 3 each", ss.Free, ts.Free)
	}
	// Siblings may share the same registers ("R could spill a single set
	// of registers that could be used by both S and T").
	if ss.Free != ts.Free {
		t.Logf("note: siblings use different FREE sets: %s vs %s", ss.Free, ts.Free)
	}
	// Everything preallocated must be spilled by R or hoisted to an
	// enclosing cluster root above it.
	if !coveredByAncestors(g, id, asn, r, ss.Free.Union(ts.Free)) {
		t.Errorf("member FREE %s/%s not spilled by any enclosing root", ss.Free, ts.Free)
	}
}

// TestFigure7CallerPostPass reproduces the §4.2.4 example: J roots a
// cluster with K, L, M; registers free in M but spilled at J become
// caller-saves registers in K and L.
func TestFigure7CallerPostPass(t *testing.T) {
	g := buildGraph(t,
		map[string][]string{"main": {"J"}, "J": {"K", "L"}, "K": {"M"}, "L": {"M"}},
		map[string]int64{"J->K": 50, "J->L": 50, "K->M": 50, "L->M": 50},
		map[string]int{"K": 1, "L": 2, "M": 1})
	id := clusters.Identify(g)
	if err := clusters.Validate(g, id); err != nil {
		t.Fatal(err)
	}
	j := g.NodeByName("J").ID
	c := id.RootCluster[j]
	if c == nil {
		t.Fatalf("J not a root: %v", id.Clusters)
	}
	for _, n := range []string{"K", "L", "M"} {
		if !c.Contains(g.NodeByName(n).ID) {
			t.Fatalf("%s not in J's cluster: %v", n, c)
		}
	}
	asn := clusters.ComputeSets(g, id, need(g), noPromotion)
	js := asn.Sets[j]
	ks := asn.Sets[g.NodeByName("K").ID]
	ms := asn.Sets[g.NodeByName("M").ID]
	if ms.Free.Count() != 1 {
		t.Errorf("FREE[M] = %s, want 1 register", ms.Free)
	}
	if !coveredByAncestors(g, id, asn, j, ms.Free) {
		t.Errorf("FREE[M] %s not spilled by J or an enclosing root", ms.Free)
	}
	// The post-pass: K's CALLER set includes registers in MSPILL[J] that
	// remain available at K (they are spilled at J and unused on K's path
	// below... M uses some, but at least the std caller-saves grew).
	std := regs.StdCallerSaved()
	if ks.Caller.Minus(std).Empty() {
		t.Errorf("CALLER[K] %s gained nothing from MSPILL[J] %s", ks.Caller, js.MSpill)
	}
}

// TestRecursiveNodesAreNotMembers checks the recursion restriction: a
// self-recursive procedure may root a cluster but never be inside one.
func TestRecursiveNodesAreNotMembers(t *testing.T) {
	g := buildGraph(t,
		map[string][]string{"main": {"rec"}, "rec": {"rec", "leaf"}},
		map[string]int64{"rec->leaf": 100, "rec->rec": 10},
		map[string]int{"rec": 2, "leaf": 2})
	id := clusters.Identify(g)
	if err := clusters.Validate(g, id); err != nil {
		t.Fatal(err)
	}
	recID := g.NodeByName("rec").ID
	for _, c := range id.Clusters {
		for _, m := range c.Members {
			if m == recID {
				t.Fatal("self-recursive node admitted as a cluster member")
			}
		}
	}
}

// TestMutualRecursionNotWhollyInside checks that a cycle is never wholly
// within one cluster, though clusters may exist within cycles.
func TestMutualRecursionNotWhollyInside(t *testing.T) {
	g := buildGraph(t,
		map[string][]string{"main": {"a"}, "a": {"b"}, "b": {"a", "w"}, "w": nil},
		map[string]int64{"a->b": 50, "b->a": 50, "b->w": 200},
		map[string]int{"a": 2, "b": 2, "w": 3})
	id := clusters.Identify(g)
	if err := clusters.Validate(g, id); err != nil {
		t.Fatal(err)
	}
}

// TestClusterInvariantsOnRandomGraphs property-checks cluster and register
// set invariants over random call graphs.
func TestClusterInvariantsOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(14)
		edges := map[string][]string{}
		freqs := map[string]int64{}
		needs := map[string]int{}
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("p%d", i)
			needs[name] = rng.Intn(6)
			nc := rng.Intn(3)
			for c := 0; c < nc; c++ {
				to := fmt.Sprintf("p%d", rng.Intn(n))
				edges[name] = append(edges[name], to)
				freqs[name+"->"+to] = int64(1 + rng.Intn(100))
			}
		}
		// Ensure at least one start node.
		edges["p0"] = append(edges["p0"], "p1")
		g := buildGraph(t, edges, freqs, needs)

		id := clusters.Identify(g)
		if err := clusters.Validate(g, id); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		clusters.Prune(g, id, need(g))
		if err := clusters.Validate(g, id); err != nil {
			t.Fatalf("trial %d (after prune): %v", trial, err)
		}
		asn := clusters.ComputeSets(g, id, need(g), noPromotion)

		std := regs.StdCalleeSaved()
		for _, nd := range g.Nodes {
			s := asn.Sets[nd.ID]
			// The four sets are pairwise disjoint.
			d := &struct{ a, b regs.Set }{}
			_ = d
			pairs := [][2]regs.Set{
				{s.Free, s.Caller}, {s.Free, s.Callee}, {s.Free, s.MSpill},
				{s.Caller, s.Callee}, {s.Caller, s.MSpill}, {s.Callee, s.MSpill},
			}
			for _, p := range pairs {
				if !p[0].Intersect(p[1]).Empty() {
					t.Fatalf("trial %d: %s: overlapping register sets", trial, nd.Name)
				}
			}
			// FREE and MSPILL stay within the callee-saves convention.
			if !s.Free.Minus(std).Empty() || !s.MSpill.Minus(std).Empty() {
				t.Fatalf("trial %d: %s: FREE/MSPILL outside callee-saves", trial, nd.Name)
			}
			// MSPILL only at cluster roots.
			if !s.MSpill.Empty() && !id.IsRoot(nd.ID) {
				t.Fatalf("trial %d: %s: MSPILL at non-root", trial, nd.Name)
			}
		}
		// Every member's FREE registers are spilled by some enclosing root.
		for _, c := range id.Clusters {
			rootSpill := asn.Sets[c.Root].MSpill
			for _, m := range c.Members {
				if id.IsRoot(m) {
					continue // nested roots keep their own MSPILL obligations
				}
				free := asn.Sets[m].Free
				if !free.Minus(rootSpill).Empty() {
					// The register may have been hoisted even higher: check
					// the chain of enclosing roots.
					if !coveredByAncestors(g, id, asn, c.Root, free) {
						t.Fatalf("trial %d: member %s FREE %s not spilled by any root (MSPILL[%s]=%s)",
							trial, g.Nodes[m].Name, free, g.Nodes[c.Root].Name, rootSpill)
					}
				}
			}
		}
	}
}

// coveredByAncestors reports whether free ⊆ union of MSPILL over root and
// the roots of clusters containing it.
func coveredByAncestors(g *callgraph.Graph, id *clusters.Identification, asn *clusters.Assignment, root int, free regs.Set) bool {
	var union regs.Set
	cur := root
	for depth := 0; depth < 64; depth++ {
		union = union.Union(asn.Sets[cur].MSpill)
		r, ok := id.MemberRoot[cur]
		if !ok {
			break
		}
		cur = r
	}
	return free.Minus(union).Empty()
}

// TestPruneDropsUnprofitableClusters: a root called much more often than
// its members must not keep a cluster — the root would execute spill code
// on every call for members that rarely run. Exact profiled counts make
// the imbalance visible (heuristic counts cannot express "called less
// often than the caller").
func TestPruneDropsUnprofitableClusters(t *testing.T) {
	g := buildGraph(t,
		map[string][]string{"main": {"hot"}, "hot": {"cold"}},
		nil,
		map[string]int{"hot": 2, "cold": 2})
	g.ApplyProfile(&parv.Profile{
		Edges: map[parv.EdgeKey]uint64{
			{Caller: "main", Callee: "hot"}: 10000,
			{Caller: "hot", Callee: "cold"}: 3,
		},
	})
	id := clusters.Identify(g)
	clusters.Prune(g, id, need(g))
	for _, c := range id.Clusters {
		if c.Root == g.NodeByName("hot").ID {
			t.Fatalf("unprofitable cluster kept: %v", c)
		}
	}
}

func TestAverageSize(t *testing.T) {
	id := &clusters.Identification{
		Clusters: []*clusters.Cluster{
			{Root: 0, Members: []int{1, 2}},
			{Root: 3, Members: []int{4}},
		},
	}
	if got := id.AverageSize(); got != 2.5 {
		t.Errorf("average size = %f, want 2.5", got)
	}
}

// TestNestedRootFreeExcludedFromAvail pins a preallocation bug: when a
// nested cluster root's CALLEE registers are converted to FREE use (the
// outer root spills them instead), those registers hold live values in the
// nested root without a save — so they must leave the AVAIL set flowing to
// the nodes it dominates. The register-starved descendant b below would
// otherwise pick the same registers as its own FREE set and clobber the
// nested root's values mid-call.
func TestNestedRootFreeExcludedFromAvail(t *testing.T) {
	g := buildGraph(t,
		map[string][]string{"main": {"a"}, "a": {"b"}},
		nil,
		map[string]int{"main": 1, "a": 2, "b": 16})
	mainID := g.NodeByName("main").ID
	aID := g.NodeByName("a").ID
	bID := g.NodeByName("b").ID

	inner := &clusters.Cluster{Root: aID}
	outer := &clusters.Cluster{Root: mainID, Members: []int{aID, bID}}
	id := &clusters.Identification{
		Clusters:    []*clusters.Cluster{outer, inner},
		RootCluster: map[int]*clusters.Cluster{mainID: outer, aID: inner},
		MemberRoot:  map[int]int{aID: mainID, bID: mainID},
	}

	asn := clusters.ComputeSets(g, id, need(g), noPromotion)
	as, bs := asn.Sets[aID], asn.Sets[bID]
	if as.Free.Empty() {
		t.Fatalf("nested root a got no FREE registers (fixture no longer exercises the hoist); sets: %+v", as)
	}
	if inter := asn.Avail[aID].Intersect(as.Free); !inter.Empty() {
		t.Errorf("AVAIL[a] still contains a's FREE registers %s", inter)
	}
	if inter := as.Free.Intersect(bs.Free); !inter.Empty() {
		t.Errorf("a and b both use %s as FREE on one call chain", inter)
	}
}
