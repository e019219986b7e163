// Package core implements the program analyzer — the central tool of the
// paper's two-pass compilation system (§2, §4).
//
// The analyzer reads every module's summary file, constructs the program
// call graph, runs global variable promotion (webs + coloring) and spill
// code motion (clusters + register usage sets), and emits a program
// database of register allocation directives for the compiler second
// phase. It modifies no code.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"ipra/internal/callgraph"
	"ipra/internal/clusters"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/refsets"
	"ipra/internal/regs"
	"ipra/internal/summary"
	"ipra/internal/telemetry"
	"ipra/internal/webs"
)

// PromotionMode selects the global variable promotion strategy.
type PromotionMode int

// Promotion strategies (Table 4 columns).
const (
	// PromoteNone disables interprocedural promotion.
	PromoteNone PromotionMode = iota
	// PromoteColoring colors webs onto a reserved register subset (col C/F).
	PromoteColoring
	// PromoteGreedy colors webs without reserving registers (col D).
	PromoteGreedy
	// PromoteBlanket dedicates registers to the hottest globals over the
	// whole program, as in [Wall 86] (col E).
	PromoteBlanket
)

func (m PromotionMode) String() string {
	switch m {
	case PromoteNone:
		return "none"
	case PromoteColoring:
		return "coloring"
	case PromoteGreedy:
		return "greedy"
	case PromoteBlanket:
		return "blanket"
	}
	return "?"
}

// Options configure one analyzer run.
type Options struct {
	// SpillMotion enables cluster identification and register usage sets.
	SpillMotion bool
	// Promotion selects the web promotion strategy.
	Promotion PromotionMode
	// Profile, when non-nil, replaces the heuristic call counts with exact
	// profiled counts (§7.5, Table 4 columns B and F).
	Profile *parv.Profile
	// PartialProgram enables the conservative assumptions of §7.2 for
	// analyzing a library without its callers: every externally visible
	// (non-static) procedure may be called from outside, and every
	// externally visible global may be referenced from outside — so only
	// statics remain eligible for promotion, and exported procedures are
	// treated as additional start nodes.
	PartialProgram bool
	// MergeWebs enables the §7.6.1 web re-merging extension: independent
	// webs of a global variable are merged through their common dominator
	// when sharing one cold entry beats paying per-web entry transfers.
	MergeWebs bool
	// Jobs is read by nothing: the analyzer runs on the caller's
	// goroutine. The field stays only because the benchmark module's
	// layer replay assigns it; it goes when that replay does.
	Jobs int
	// Strategy names the allocation strategy the coloring stage runs (""
	// selects DefaultStrategyName, the paper's priority coloring). The
	// strategy decides which webs occupy which callee-saves registers; see
	// strategy.go and StrategyNames for the table of strategies.
	Strategy string
	// CallerSavesPreallocation enables the §7.6.2 [Chow 88]-style
	// extension: each procedure's caller-saves usage is contracted to its
	// estimated need, the total usage of every call tree is propagated
	// bottom-up, and the second phase keeps values in caller-saves
	// registers across calls whose trees do not use them. Recursive chains
	// and indirect call sites fall back to worst-case clobbers, as the
	// paper notes the technique cannot exploit them.
	CallerSavesPreallocation bool
}

// PromotionRegs is the number of the 16 callee-saves registers global
// variable promotion may occupy, as in the paper's experiments: web
// coloring reserves this many, and blanket promotion dedicates one to
// each of this many hottest globals.
const PromotionRegs = 6

// DefaultOptions returns the paper's primary configuration: spill motion
// plus 6-register web coloring (Table 4 column C).
func DefaultOptions() Options {
	return Options{SpillMotion: true, Promotion: PromoteColoring}
}

// Stats summarizes an analysis for reports (§6.2 publishes these numbers
// for the PA Optimizer).
type Stats struct {
	EligibleGlobals int
	WebsFound       int
	WebsConsidered  int
	WebsColored     int
	Clusters        int
	AvgClusterSize  float64
}

// Result carries the program database plus the intermediate artifacts for
// inspection, reporting, and tests.
type Result struct {
	DB       *pdb.Database
	Graph    *callgraph.Graph
	Sets     *refsets.Sets
	Webs     []*webs.Web
	Blankets []*webs.Web
	Clusters *clusters.Identification
	Stats    Stats
	// Strategy is the canonical name of the allocation strategy that
	// produced this result.
	Strategy string
}

// Analyze runs the program analyzer over the given summary files. The
// context carries cancellation-free telemetry only: when a tracer is
// attached, each analyzer stage (callgraph, refsets, webs, coloring,
// clusters, directives) runs under its own span and the web/cluster
// totals land on the tracer's counters.
func Analyze(ctx context.Context, summaries []*summary.ModuleSummary, opt Options) (*Result, error) {
	ctx, span := telemetry.StartSpan(ctx, "analyze")
	defer span.End()
	span.SetInt("modules", int64(len(summaries)))

	a, err := newAnalysis(opt)
	if err != nil {
		return nil, err
	}
	if err := a.stageGraph(ctx, summaries); err != nil {
		return nil, err
	}
	a.stageRefsets(ctx) // ---- Global variable promotion (§4.1).
	a.stageWebs(ctx)
	a.stageColoring(ctx)
	a.stageClusters(ctx) // ---- Spill code motion (§4.2).
	if err := a.stageDirectives(ctx); err != nil {
		return nil, err
	}
	telemetry.Count(ctx, "analyzer.webs", int64(a.res.Stats.WebsFound))
	telemetry.Count(ctx, "analyzer.webs_colored", int64(a.res.Stats.WebsColored))
	telemetry.Count(ctx, "analyzer.clusters", int64(a.res.Stats.Clusters))
	return a.res, nil
}

// computeCallClobbers implements the §7.6.2 caller-saves preallocation in
// the [Chow 88] style: the total caller-saves usage of each call tree is
// propagated bottom-up, and scratch registers are handed out in *bands* —
// a procedure's own scratch values sit above everything its call tree
// uses. A caller may then keep values live across a call in the scratch
// registers above the callee's advertised band, paying no save/restore at
// all. Recursive chains and indirect call sites collapse to the worst
// case, as the paper notes the technique cannot exploit them.
func computeCallClobbers(g *callgraph.Graph, db *pdb.Database) {
	// The banded scratch registers, in the fixed order the register
	// allocator consumes its preference lists.
	scratch := []uint8{19, 20, 21, 22, 29, 31}
	prefix := func(n int) regs.Set {
		var s regs.Set
		for i := 0; i < n && i < len(scratch); i++ {
			s = s.Add(scratch[i])
		}
		return s
	}
	// Registers any call may touch regardless of band: argument setup,
	// return value, return pointer.
	linkage := regs.Of(parv.ArgRegs...).Add(parv.RegRet).Add(parv.RegRP)

	// Bottom-up over the SCC condensation (Tarjan numbers components in
	// reverse topological order, so ascending SCC index visits callees
	// first); sweeps repeat until the fixpoint so recursive chains of any
	// length converge regardless of node numbering. Both quantities grow
	// monotonically, so the loop terminates.
	treeLen := make([]int, len(g.Nodes))          // band height of the call tree
	clobberFree := make([]regs.Set, len(g.Nodes)) // unsaved callee-saves used below
	calleeSaved := regs.StdCalleeSaved()
	order := append([]*callgraph.Node(nil), g.Nodes...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].SCC < order[j].SCC })
	for changed := true; changed; {
		changed = false
		for _, nd := range order {
			if nd.Rec == nil {
				// External procedure (run-time library): §2 — no
				// interprocedural allocation across it; assume it uses
				// every scratch register.
				if treeLen[nd.ID] != len(scratch) {
					treeLen[nd.ID] = len(scratch)
					changed = true
				}
				continue
			}
			d := db.Procs[nd.Name]
			childMax := 0
			var free regs.Set
			if d != nil {
				// A call may destroy every callee-saves register the
				// procedure uses without saving: its FREE set and the
				// callee-saved registers the cluster post-pass moved into
				// CALLER — both rely on a dominating root's spill, not on
				// this procedure restoring them.
				free = d.Free.Union(d.Caller.Intersect(calleeSaved))
			}
			for _, e := range nd.Out {
				if treeLen[e.To] > childMax {
					childMax = treeLen[e.To]
				}
				free = free.Union(clobberFree[e.To])
			}
			if nd.Rec.MakesIndirectCalls || nd.Recursive {
				childMax = len(scratch)
			}
			own := nd.Rec.CallerSavesNeeded + 1 // safety margin
			tl := childMax + own
			if tl > len(scratch) {
				tl = len(scratch)
			}
			if tl != treeLen[nd.ID] || free != clobberFree[nd.ID] {
				treeLen[nd.ID] = tl
				clobberFree[nd.ID] = free
				changed = true
			}
		}
	}

	for _, nd := range g.Nodes {
		if nd.Rec == nil {
			continue
		}
		d := db.Procs[nd.Name]
		if d == nil {
			continue
		}
		// Contract the procedure's own caller-saves set to its band (plus
		// the linkage registers and any registers the cluster post-pass
		// added, which live outside the scratch list).
		band := prefix(treeLen[nd.ID])
		nonScratch := d.Caller.Minus(regs.Of(scratch...))
		d.Caller = band.Union(nonScratch).Union(linkage.Intersect(regs.StdCallerSaved()))
		d.ClobberAtCalls = band.
			Union(clobberFree[nd.ID]).
			Union(linkage)
		d.HasClobber = true
		// Re-validate: the contraction must not break set disjointness.
		d.Caller = d.Caller.Minus(d.Free).Minus(d.Callee).Minus(d.MSpill)
	}
}

// needFunc adapts summary callee-saves estimates for cluster preallocation.
func needFunc(g *callgraph.Graph) func(int) int {
	return func(n int) int {
		nd := g.Nodes[n]
		if nd.Rec == nil {
			return 0
		}
		return nd.Rec.CalleeSavesNeeded
	}
}

// webNeedsStore determines, per web, whether any member procedure modifies
// the variable (§5: no store at entry nodes otherwise).
func webNeedsStore(g *callgraph.Graph, active []*webs.Web) map[*webs.Web]bool {
	out := make(map[*webs.Web]bool, len(active))
	for _, w := range active {
		modified := false
		w.Nodes.ForEach(func(id int) {
			nd := g.Nodes[id]
			if nd.Rec == nil {
				return
			}
			for _, gr := range nd.Rec.GlobalRefs {
				if gr.Name == w.Var && gr.Writes > 0 {
					modified = true
				}
			}
		})
		out[w] = modified
	}
	return out
}

// applyPartialAssumptions marks the call graph for §7.2 library analysis:
// non-static globals may be referenced by unseen code, so they become
// ineligible, and every non-static procedure gains an unknown external
// caller — modeled by a synthetic record-less node calling each exported
// procedure, which the web and cluster construction then treats
// conservatively (record-less nodes can never carry inserted code).
func applyPartialAssumptions(g *callgraph.Graph) {
	for _, meta := range g.Globals {
		if !meta.Static {
			meta.AddrTaken = true
		}
	}
	var exported []int
	for _, nd := range g.Nodes {
		if nd.Rec != nil && !nd.Rec.Static {
			exported = append(exported, nd.ID)
		}
	}
	g.AddSyntheticCaller("<external>", exported)
}

// discardUncompilableWebs drops webs containing procedures without summary
// records: the compiler second phase cannot convert references or insert
// entry code in procedures it will never compile (run-time routines,
// unknown external callers in partial call graphs).
func discardUncompilableWebs(g *callgraph.Graph, ws []*webs.Web) {
	for _, w := range ws {
		if w.Discarded {
			continue
		}
		w.Nodes.ForEach(func(id int) {
			if !w.Discarded && g.Nodes[id].Rec == nil {
				w.Discarded = true
				w.DiscardReason = "web contains a procedure outside the compiled program"
			}
		})
	}
}

// discardCrossModuleStatics drops webs for static globals whose entry nodes
// lie outside the defining module: the second phase could not insert the
// load/store for a static belonging to another module (§7.4).
func discardCrossModuleStatics(g *callgraph.Graph, ws []*webs.Web) {
	for _, w := range ws {
		if w.Discarded {
			continue
		}
		meta := g.Globals[w.Var]
		if meta == nil || !meta.Static {
			continue
		}
		for _, e := range w.Entries {
			if g.Nodes[e].Module != meta.Module {
				w.Discarded = true
				w.DiscardReason = "static variable with entry node in another module"
				break
			}
		}
	}
}

// Report renders a human-readable analysis summary.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "call graph: %d nodes, %d start nodes\n", len(r.Graph.Nodes), len(r.Graph.Starts))
	fmt.Fprintf(&b, "eligible globals: %d\n", r.Stats.EligibleGlobals)
	fmt.Fprintf(&b, "webs: %d found, %d considered, %d colored\n",
		r.Stats.WebsFound, r.Stats.WebsConsidered, r.Stats.WebsColored)
	if r.Strategy != "" {
		fmt.Fprintf(&b, "strategy: %s\n", r.Strategy)
	}
	if r.Clusters != nil {
		fmt.Fprintf(&b, "clusters: %d (average size %.1f)\n", r.Stats.Clusters, r.Stats.AvgClusterSize)
	}
	return b.String()
}
