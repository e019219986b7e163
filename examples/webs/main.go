// Webs: reproduce the paper's worked example (Figure 3, Tables 1 and 2) —
// the call graph A–H with globals g1–g3, the L_REF/C_REF/P_REF sets, web
// identification, interference, and coloring with two registers.
//
//	go run ./examples/webs
package main

import (
	"fmt"
	"log"
	"strings"

	"ipra/internal/callgraph"
	"ipra/internal/refsets"
	"ipra/internal/summary"
	"ipra/internal/webs"
)

func main() {
	// The Figure 3 program: A calls B and C; B calls D and E; C calls F,
	// G and H. L_REF sets per Table 1.
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
	ms := &summary.ModuleSummary{
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

	g, err := callgraph.Build([]*summary.ModuleSummary{ms})
	if err != nil {
		log.Fatal(err)
	}
	g.EstimateCounts()
	sets := refsets.Compute(g, refsets.EligibleGlobals(g))

	// Table 1.
	fmt.Println("Table 1: reference sets")
	fmt.Printf("%-10s %-10s %-10s %-10s\n", "Procedure", "L_REF", "C_REF", "P_REF")
	for _, name := range []string{"A", "B", "C", "D", "E", "F", "G", "H"} {
		nd := g.NodeByName(name)
		fmt.Printf("%-10s %-10s %-10s %-10s\n", name,
			joinOrEmpty(sets.LRefNames(nd.ID)),
			joinOrEmpty(sets.CRefNames(nd.ID)),
			joinOrEmpty(sets.PRefNames(nd.ID)))
	}

	// Table 2.
	ws := webs.Identify(g, sets)
	webs.ComputePriorities(g, sets, ws)
	webs.Filter(ws, true)
	colored := webs.Color(ws, 2)

	fmt.Println("\nTable 2: webs and coloring (2 callee-saves registers)")
	fmt.Printf("%-5s %-9s %-10s %-12s %-12s %-8s\n",
		"Web", "Variable", "Nodes", "Entries", "Interferes", "Register")
	for _, w := range ws {
		var nodes, entries, inter []string
		for _, id := range w.NodeIDs() {
			nodes = append(nodes, g.Nodes[id].Name)
		}
		for _, id := range w.Entries {
			entries = append(entries, g.Nodes[id].Name)
		}
		for _, x := range ws {
			if webs.Interfere(w, x) {
				inter = append(inter, fmt.Sprint(x.ID))
			}
		}
		fmt.Printf("%-5d %-9s %-10s %-12s %-12s r%d\n",
			w.ID, w.Var, strings.Join(nodes, " "), strings.Join(entries, " "),
			strings.Join(inter, " "), w.Color+1)
	}
	fmt.Printf("\n%d of %d webs colored with 2 registers\n", colored, len(ws))
	fmt.Println("(per the paper: different webs of the same variable may get")
	fmt.Println(" different registers, and one register serves several webs)")
}

func joinOrEmpty(ss []string) string {
	if len(ss) == 0 {
		return "-"
	}
	return strings.Join(ss, " ")
}
