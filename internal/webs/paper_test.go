package webs_test

import (
	"reflect"
	"sort"
	"testing"

	"ipra/internal/callgraph"
	"ipra/internal/refsets"
	"ipra/internal/summary"
	"ipra/internal/webs"
)

// figure3 builds the call graph of the paper's Figure 3: procedures A–H,
// globals g1–g3, with
//
//	A → B, C;  B → D, E;  C → F, G, H
//	L_REF: A{g3} B{g1,g3} C{g2,g3} D{g1} E{g1,g2} F{g2} G{g2} H{}
func figure3() *summary.ModuleSummary {
	proc := func(name string, globals []string, calls ...string) summary.ProcRecord {
		rec := summary.ProcRecord{Name: name, Module: "fig3.mc"}
		for _, g := range globals {
			rec.GlobalRefs = append(rec.GlobalRefs, summary.GlobalRef{Name: g, Freq: 10, Reads: 5, Writes: 5})
		}
		for _, c := range calls {
			rec.Calls = append(rec.Calls, summary.CallSite{Callee: c, Freq: 1})
		}
		return rec
	}
	return &summary.ModuleSummary{
		Module: "fig3.mc",
		Procs: []summary.ProcRecord{
			proc("A", []string{"g3"}, "B", "C"),
			proc("B", []string{"g1", "g3"}, "D", "E"),
			proc("C", []string{"g2", "g3"}, "F", "G", "H"),
			proc("D", []string{"g1"}),
			proc("E", []string{"g1", "g2"}),
			proc("F", []string{"g2"}),
			proc("G", []string{"g2"}),
			proc("H", nil),
		},
		Globals: []summary.GlobalInfo{
			{Name: "g1", Module: "fig3.mc", Size: 4, Defined: true, Scalar: true},
			{Name: "g2", Module: "fig3.mc", Size: 4, Defined: true, Scalar: true},
			{Name: "g3", Module: "fig3.mc", Size: 4, Defined: true, Scalar: true},
		},
	}
}

func buildFig3(t *testing.T) (*callgraph.Graph, *refsets.Sets) {
	t.Helper()
	g, err := callgraph.Build([]*summary.ModuleSummary{figure3()})
	if err != nil {
		t.Fatal(err)
	}
	g.EstimateCounts()
	eligible := refsets.EligibleGlobals(g)
	want := []string{"g1", "g2", "g3"}
	if !reflect.DeepEqual(eligible, want) {
		t.Fatalf("eligible = %v, want %v", eligible, want)
	}
	return g, refsets.Compute(g, eligible)
}

// TestPaperFigure3RefSets reproduces Table 1 of the paper.
func TestPaperFigure3RefSets(t *testing.T) {
	g, sets := buildFig3(t)

	want := map[string]struct{ l, c, p []string }{
		"A": {[]string{"g3"}, []string{"g1", "g2", "g3"}, nil},
		"B": {[]string{"g1", "g3"}, []string{"g1", "g2"}, []string{"g3"}},
		"C": {[]string{"g2", "g3"}, []string{"g2"}, []string{"g3"}},
		"D": {[]string{"g1"}, nil, []string{"g1", "g3"}},
		"E": {[]string{"g1", "g2"}, nil, []string{"g1", "g3"}},
		"F": {[]string{"g2"}, nil, []string{"g2", "g3"}},
		"G": {[]string{"g2"}, nil, []string{"g2", "g3"}},
		"H": {nil, nil, []string{"g2", "g3"}},
	}
	for name, w := range want {
		nd := g.NodeByName(name)
		if nd == nil {
			t.Fatalf("missing node %s", name)
		}
		if got := sets.LRefNames(nd.ID); !reflect.DeepEqual(got, w.l) {
			t.Errorf("L_REF[%s] = %v, want %v", name, got, w.l)
		}
		if got := sets.CRefNames(nd.ID); !reflect.DeepEqual(got, w.c) {
			t.Errorf("C_REF[%s] = %v, want %v", name, got, w.c)
		}
		if got := sets.PRefNames(nd.ID); !reflect.DeepEqual(got, w.p) {
			t.Errorf("P_REF[%s] = %v, want %v", name, got, w.p)
		}
	}
}

// webKey renders a web as "var:NODES" for comparison with Table 2.
func webKey(g *callgraph.Graph, w *webs.Web) string {
	var names []string
	for _, id := range w.NodeIDs() {
		names = append(names, g.Nodes[id].Name)
	}
	sort.Strings(names)
	key := w.Var + ":"
	for _, n := range names {
		key += n
	}
	return key
}

// TestPaperFigure3Webs reproduces Table 2's web structure: four webs —
// g3:{A,B,C}, g2:{C,F,G}, g1:{B,D,E}, g2:{E} — with the listed
// interferences.
func TestPaperFigure3Webs(t *testing.T) {
	g, sets := buildFig3(t)
	ws := webs.Identify(g, sets)
	if len(ws) != 4 {
		for _, w := range ws {
			t.Logf("web: %s", w)
		}
		t.Fatalf("found %d webs, want 4", len(ws))
	}
	got := make(map[string]*webs.Web)
	for _, w := range ws {
		got[webKey(g, w)] = w
		if err := webs.Validate(g, sets, w); err != nil {
			t.Errorf("invalid web: %v", err)
		}
	}
	for _, key := range []string{"g3:ABC", "g2:CFG", "g1:BDE", "g2:E"} {
		if got[key] == nil {
			t.Errorf("missing web %s (have %v)", key, keys(got))
		}
	}

	// Entries: Table 2's discussion names B as the entry of the g1 web;
	// by the same construction A enters g3's web, C enters g2's, E its own.
	entries := map[string]string{"g3:ABC": "A", "g2:CFG": "C", "g1:BDE": "B", "g2:E": "E"}
	for key, entry := range entries {
		w := got[key]
		if w == nil {
			continue
		}
		if len(w.Entries) != 1 || g.Nodes[w.Entries[0]].Name != entry {
			t.Errorf("web %s: entries = %v, want [%s]", key, w.Entries, entry)
		}
	}

	// Interferences (Table 2): 1↔2 (share C), 1↔3 (share B), 3↔4 (share E).
	type pair struct{ a, b string }
	interference := map[pair]bool{}
	for _, wa := range ws {
		for _, wb := range ws {
			if webs.Interfere(wa, wb) {
				interference[pair{webKey(g, wa), webKey(g, wb)}] = true
			}
		}
	}
	wantPairs := []pair{
		{"g3:ABC", "g2:CFG"}, {"g3:ABC", "g1:BDE"}, {"g1:BDE", "g2:E"},
	}
	for _, p := range wantPairs {
		if !interference[p] || !interference[pair{p.b, p.a}] {
			t.Errorf("expected interference between %s and %s", p.a, p.b)
		}
	}
	if interference[pair{"g2:CFG", "g1:BDE"}] {
		t.Errorf("g2:CFG and g1:BDE must not interfere")
	}
	if interference[pair{"g2:CFG", "g2:E"}] {
		t.Errorf("g2:CFG and g2:E must not interfere")
	}
}

// TestPaperFigure3Coloring reproduces Table 2's result that two registers
// suffice for all four webs, with interfering webs in different registers.
func TestPaperFigure3Coloring(t *testing.T) {
	g, sets := buildFig3(t)
	ws := webs.Identify(g, sets)
	webs.ComputePriorities(g, sets, ws)
	webs.Filter(ws, true)

	colored := webs.Color(ws, 2)
	if colored != 4 {
		for _, w := range ws {
			t.Logf("%s (priority %.1f, discarded=%v %s)", w, w.Priority, w.Discarded, w.DiscardReason)
		}
		t.Fatalf("colored %d webs with 2 registers, want 4", colored)
	}
	for _, wa := range ws {
		for _, wb := range ws {
			if webs.Interfere(wa, wb) && wa.Color == wb.Color {
				t.Errorf("interfering webs share register: %s / %s", wa, wb)
			}
		}
	}
	// Different webs of the same variable may land in different registers
	// (the paper notes Web 4 and Web 2, both for g2, get r1 and r2).
	var g2Colors []int
	for _, w := range ws {
		if w.Var == "g2" {
			g2Colors = append(g2Colors, w.Color)
		}
	}
	if len(g2Colors) == 2 && g2Colors[0] == g2Colors[1] {
		t.Logf("note: both g2 webs share a register (allowed, but the paper's example differs)")
	}
}

func keys(m map[string]*webs.Web) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
