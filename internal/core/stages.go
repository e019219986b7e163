package core

import (
	"context"
	"fmt"

	"ipra/internal/callgraph"
	"ipra/internal/clusters"
	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/refsets"
	"ipra/internal/regs"
	"ipra/internal/summary"
	"ipra/internal/telemetry"
	"ipra/internal/webs"
)

// analysis threads one analyzer run through its stages. Each stage reads
// the fields earlier stages published and writes its own outputs back to
// the struct, so the stage boundaries — graph and counts, reference sets,
// webs, coloring, clusters and usage sets, directives — are explicit.
type analysis struct {
	opt Options
	res *Result

	// eligible is the promotion-eligible global universe (sorted).
	eligible []string
	// active lists the webs selected for promotion by the coloring stage
	// (colored identification webs, or the synthesized blanket webs).
	active []*webs.Web
	// promotedAt[n] is the register set reserved at node n for webs.
	promotedAt []regs.Set
	// asn carries the cluster register usage sets.
	asn *clusters.Assignment
}

// newAnalysis resolves the allocation strategy and allocates the result
// shell.
func newAnalysis(opt Options) (*analysis, error) {
	strat, err := ResolveStrategy(opt.Strategy)
	if err != nil {
		return nil, err
	}
	return &analysis{opt: opt, res: &Result{DB: pdb.New(), Strategy: strat}}, nil
}

// webReg maps a web color to its machine register: webs take registers
// from the top of the callee-saves set (the cluster preallocation fills
// from the bottom, minimizing contention).
func webReg(color int) uint8 { return uint8(parv.CalleeSavedLast - color) }

// stageGraph builds the call graph from the summaries, applies the
// partial-program assumptions, and assigns dynamic call counts: exact
// profiled counts when a profile is attached, the §6.2 normalization
// heuristic otherwise.
func (a *analysis) stageGraph(ctx context.Context, summaries []*summary.ModuleSummary) error {
	_, span := telemetry.StartSpan(ctx, "callgraph")
	defer span.End()
	g, err := callgraph.Build(summaries)
	if err != nil {
		return err
	}
	a.res.Graph = g
	if a.opt.PartialProgram {
		applyPartialAssumptions(g)
	}
	if a.opt.Profile != nil {
		g.ApplyProfile(a.opt.Profile)
	} else {
		g.EstimateCounts()
	}
	span.SetInt("nodes", int64(len(g.Nodes)))
	span.SetInt("starts", int64(len(g.Starts)))
	return nil
}

// stageRefsets computes the eligible-global universe and the L_REF /
// P_REF / C_REF families.
func (a *analysis) stageRefsets(ctx context.Context) {
	_, span := telemetry.StartSpan(ctx, "refsets")
	defer span.End()
	a.eligible = refsets.EligibleGlobals(a.res.Graph)
	a.res.Sets = refsets.Compute(a.res.Graph, a.eligible)
	a.res.Stats.EligibleGlobals = len(a.eligible)
	a.res.DB.EligibleGlobals = a.eligible
	span.SetInt("eligible", int64(len(a.eligible)))
}

// stageWebs identifies the webs of every eligible variable, computes
// their priorities, optionally merges them, and applies the economic and
// correctness filters.
func (a *analysis) stageWebs(ctx context.Context) {
	_, span := telemetry.StartSpan(ctx, "webs")
	defer span.End()
	g, sets := a.res.Graph, a.res.Sets
	allWebs := webs.Identify(g, sets)
	webs.ComputePriorities(g, sets, allWebs)
	if a.opt.MergeWebs {
		allWebs = webs.Merge(g, sets, allWebs)
		webs.ComputePriorities(g, sets, allWebs)
	}
	webs.Filter(allWebs, false)
	discardCrossModuleStatics(g, allWebs)
	discardUncompilableWebs(g, allWebs)
	a.res.Webs = allWebs
	a.res.Stats.WebsFound = len(allWebs)
	for _, w := range allWebs {
		if !w.Discarded {
			a.res.Stats.WebsConsidered++
		}
	}
	span.SetInt("found", int64(a.res.Stats.WebsFound))
	span.SetInt("considered", int64(a.res.Stats.WebsConsidered))
}

// stageColoring runs the resolved strategy's web promotion and reserves
// the chosen registers per node.
func (a *analysis) stageColoring(ctx context.Context) {
	_, span := telemetry.StartSpan(ctx, "coloring")
	defer span.End()
	span.SetStr("mode", a.opt.Promotion.String())
	span.SetStr("strategy", a.res.Strategy)
	g := a.res.Graph
	var asn assignment
	switch a.res.Strategy {
	case StrategyTiling:
		asn = colorTiling(g, a.res.Webs, a.opt)
	default: // StrategyPriority
		asn = colorPriority(g, a.res.Sets, a.res.Webs, a.opt)
	}
	a.active = asn.Active
	a.res.Blankets = asn.Blankets
	a.res.Stats.WebsColored = asn.Colored
	a.promotedAt = make([]regs.Set, len(g.Nodes))
	for _, w := range a.active {
		r := webReg(w.Color)
		w.Nodes.ForEach(func(id int) {
			a.promotedAt[id] = a.promotedAt[id].Add(r)
		})
	}
	span.SetInt("colored", int64(a.res.Stats.WebsColored))
}

// stageClusters identifies and prunes the spill-motion clusters, then
// runs the Figure 6 preallocation over them. The preallocation excludes
// the registers the coloring stage promoted.
func (a *analysis) stageClusters(ctx context.Context) {
	if !a.opt.SpillMotion {
		return
	}
	_, span := telemetry.StartSpan(ctx, "clusters")
	g := a.res.Graph
	need := needFunc(g)
	a.res.Clusters = clusters.Identify(g)
	clusters.Prune(g, a.res.Clusters, need)
	a.res.Stats.Clusters = len(a.res.Clusters.Clusters)
	a.res.Stats.AvgClusterSize = a.res.Clusters.AverageSize()
	span.SetInt("clusters", int64(a.res.Stats.Clusters))
	span.End()
	a.asn = clusters.ComputeSets(g, a.res.Clusters, need, func(n int) regs.Set {
		return a.promotedAt[n]
	})
}

// stageDirectives assembles the program database. The per-node promotion
// lists are built by one pass over the active webs' member sets (inverting
// web membership) instead of probing every active web at every node.
func (a *analysis) stageDirectives(ctx context.Context) error {
	_, span := telemetry.StartSpan(ctx, "directives")
	defer span.End()
	g := a.res.Graph
	needStore := webNeedsStore(g, a.active)
	counts := make([]int, len(g.Nodes))
	total := 0
	for _, w := range a.active {
		w.Nodes.ForEach(func(id int) {
			counts[id]++
			total++
		})
	}
	backing := make([]pdb.PromotedGlobal, total)
	perNode := make([][]pdb.PromotedGlobal, len(g.Nodes))
	off := 0
	for i, c := range counts {
		if c > 0 {
			perNode[i] = backing[off : off : off+c]
			off += c
		}
	}
	entryAt := ir.NewBitSet(len(g.Nodes))
	for _, w := range a.active {
		pg := pdb.PromotedGlobal{
			Name:      w.Var,
			Reg:       webReg(w.Color),
			NeedStore: needStore[w],
			WebID:     w.ID,
		}
		for _, e := range w.Entries {
			entryAt.Set(e)
		}
		w.Nodes.ForEach(func(id int) {
			m := pg
			m.IsEntry = entryAt.Has(id)
			perNode[id] = append(perNode[id], m)
		})
		for _, e := range w.Entries {
			entryAt.Clear(e)
		}
	}
	a.res.DB.Procs = make(map[string]*pdb.ProcDirectives, len(g.Nodes))
	nRecs := 0
	for _, nd := range g.Nodes {
		if nd.Rec != nil {
			nRecs++
		}
	}
	block := make([]pdb.ProcDirectives, 0, nRecs)
	for _, nd := range g.Nodes {
		if nd.Rec == nil {
			continue // external procedure: nothing to direct
		}
		if a.asn != nil {
			s := a.asn.Sets[nd.ID]
			block = append(block, pdb.ProcDirectives{
				Name: nd.Name,
				Free: s.Free, Caller: s.Caller, Callee: s.Callee, MSpill: s.MSpill,
				IsClusterRoot: a.res.Clusters.IsRoot(nd.ID),
			})
		} else {
			block = append(block, *pdb.Standard(nd.Name))
		}
		d := &block[len(block)-1]
		// Promoted registers are unavailable for any other purpose in web
		// procedures: remove them from every usage set (§5).
		if pset := a.promotedAt[nd.ID]; !pset.Empty() {
			d.Free = d.Free.Minus(pset)
			d.Caller = d.Caller.Minus(pset)
			d.Callee = d.Callee.Minus(pset)
			d.MSpill = d.MSpill.Minus(pset)
		}
		d.Promoted = perNode[nd.ID]
		if len(d.Promoted) > 1 {
			pdb.SortPromoted(d.Promoted)
		}
		if err := d.Validate(); err != nil {
			return fmt.Errorf("analyzer produced inconsistent directives: %w", err)
		}
		a.res.DB.Procs[nd.Name] = d
	}
	if a.opt.CallerSavesPreallocation {
		computeCallClobbers(g, a.res.DB)
	}
	return nil
}
