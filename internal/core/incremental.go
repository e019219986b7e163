// AnalyzeIncremental: the incremental program analyzer. Given the state
// of a previous analysis and a hint of which modules may have changed, it
// patches record-only edits — changed call frequencies and global
// references under an unchanged call structure — by re-deriving only the
// invalidated slices: reference-set columns whose membership flipped, the
// webs of those variables, clusters only when call counts or register
// needs moved. The cheap closing stages (filter, coloring, preallocation,
// directives) re-run through the exact same code paths as a clean Analyze,
// so the output is byte-identical to a clean analysis by construction.
// Any other edit — a changed call structure among them — and any failed
// precondition for exact patching is a declared fallback to a full
// analysis instead of an approximation.
package core

import (
	"context"
	"slices"

	"ipra/internal/callgraph"
	"ipra/internal/ir"
	"ipra/internal/refsets"
	"ipra/internal/summary"
	"ipra/internal/telemetry"
	"ipra/internal/webs"
)

// ReuseStats reports what one incremental run reused versus rebuilt.
type ReuseStats struct {
	// Fallback is non-empty when the run fell back to a full analysis,
	// naming the reason; every other field except DirtyModules is then
	// meaningless.
	Fallback string

	DirtyModules int // modules whose summary hash actually changed
	DirtyProcs   int // procedures whose record hash changed
	DirtyVars    int // variables whose reference columns were recomputed

	WebsReused  int
	WebsRebuilt int

	CountsRecomputed bool
	ClustersRebuilt  bool
}

// AnalyzeIncremental analyzes the program, reusing prev where the edit
// allows. dirty must name every module whose summary may differ from the
// one prev was built against (a superset is fine — unchanged modules are
// recognized by hash and skipped); the build driver passes the modules
// whose phase 1 re-ran. prev may be nil or from a different
// configuration, in which case the analysis is simply full.
//
// The returned State is prev patched in place when the incremental path
// ran, or a fresh state after a fallback, which keeps prev's stamps of the
// modules dirty does not name. Either way it owns the graph, sets, and
// webs inside the returned Result: results from earlier runs over the
// same State must not be read afterwards.
func AnalyzeIncremental(ctx context.Context, summaries []*summary.ModuleSummary, opt Options, prev *State, dirty []string) (*Result, *State, *ReuseStats, error) {
	ctx, span := telemetry.StartSpan(ctx, "analyze")
	defer span.End()
	span.SetStr("mode", "incremental")
	rs := &ReuseStats{}

	fallback := func(reason string) (*Result, *State, *ReuseStats, error) {
		rs.Fallback = reason
		span.SetStr("fallback", reason)
		if ev := telemetry.Event(ctx, "invalidate-analyzer"); ev != nil {
			ev.SetStr("scope", "full")
			ev.SetStr("reason", reason)
			ev.End()
		}
		res, err := Analyze(ctx, summaries, opt)
		if err != nil {
			return nil, nil, nil, err
		}
		st := newState(res, summaries, opt, prev, dirty)
		telemetry.Count(ctx, "analyzer.webs_rebuilt", int64(len(res.Webs)))
		rs.WebsRebuilt = len(res.Webs)
		rs.CountsRecomputed = true
		if opt.SpillMotion {
			rs.ClustersRebuilt = true
			telemetry.Count(ctx, "analyzer.clusters_rebuilt", int64(res.Stats.Clusters))
		}
		return res, st, rs, nil
	}

	switch {
	case prev == nil:
		return fallback("no analyzer state")
	case prev.unsupported != "":
		return fallback(prev.unsupported)
	case prev.optKey != optionsKey(opt):
		return fallback("analyzer options changed")
	case opt.MergeWebs, opt.PartialProgram:
		return fallback("configuration not incrementalized")
	case len(summaries) != len(prev.stamps):
		return fallback("module set changed")
	}
	for i, ms := range summaries {
		if ms.Module != prev.stamps[i].Name {
			return fallback("module set changed")
		}
	}

	// Identify the modules that really changed among the hinted ones.
	modIndex := make(map[string]int, len(summaries))
	for i, ms := range summaries {
		modIndex[ms.Module] = i
	}
	var changedMods []int
	seen := make(map[int]bool)
	for _, name := range dirty {
		i, ok := modIndex[name]
		if !ok {
			return fallback("module set changed")
		}
		if seen[i] {
			continue
		}
		seen[i] = true
		if summary.Hash(summaries[i]) != prev.stamps[i].Hash {
			changedMods = append(changedMods, i)
		}
	}
	rs.DirtyModules = len(changedMods)

	g := prev.g
	sets := prev.sets

	// Per changed module: the procedure list must be stable (a new or
	// renamed procedure changes the node set), and changed records are
	// located by their per-procedure hash.
	type procEdit struct {
		nd  *callgraph.Node
		rec *summary.ProcRecord
	}
	var edits []procEdit
	for _, i := range changedMods {
		ms := summaries[i]
		stamp := &prev.stamps[i]
		if len(ms.Procs) != len(stamp.Procs) {
			return fallback("procedure set changed")
		}
		for j := range ms.Procs {
			if ms.Procs[j].Name != stamp.Procs[j] {
				return fallback("procedure set changed")
			}
			if summary.RecordHash(&ms.Procs[j]) == stamp.RecHashes[j] {
				continue
			}
			nd := g.NodeByName(ms.Procs[j].Name)
			if nd == nil {
				return fallback("procedure set changed")
			}
			edits = append(edits, procEdit{nd: nd, rec: &ms.Procs[j]})
		}
		if ev := telemetry.Event(ctx, "invalidate-analyzer"); ev != nil {
			ev.SetStr("scope", "module")
			ev.SetStr("module", ms.Module)
			ev.End()
		}
	}
	rs.DirtyProcs = len(edits)

	// The conservative indirect-call target set is call structure too:
	// every indirect call site fans out to all of it, so a change there
	// moves edges at procedures far from the edit. Both the old and the new
	// union come from the per-module stamp contributions — a graph decoded
	// from disk carries no record bindings to read them from.
	changed := make(map[int]bool, len(changedMods))
	for _, i := range changedMods {
		changed[i] = true
	}
	oldAT := make(map[string]bool)
	newAT := make(map[string]bool)
	for i := range summaries {
		for _, at := range prev.stamps[i].AddrTaken {
			oldAT[at] = true
		}
		if changed[i] {
			for j := range summaries[i].Procs {
				for _, at := range summaries[i].Procs[j].AddrTakenProcs {
					newAT[at] = true
				}
			}
			continue
		}
		for _, at := range prev.stamps[i].AddrTaken {
			newAT[at] = true
		}
	}
	if len(newAT) != len(oldAT) {
		return fallback("call structure changed")
	}
	for at := range newAT {
		if !oldAT[at] {
			return fallback("call structure changed")
		}
	}
	g.AddrTakenProcs = oldAT

	// Each edited procedure must keep its call structure: the same direct
	// callees in the same order and the same indirect fan-out. Anything
	// else moves edges, and with them reference sets, SCCs, and dominators
	// far from the edit — a clean analysis is the cheaper way to get them.
	// Edge frequencies are patched in place as they are compared (a
	// fallback discards prev); the dirty variables are seeded against the
	// old reference sets.
	dirtyVars := ir.NewBitSet(len(sets.Vars))
	for _, ed := range edits {
		nd, rec := ed.nd, ed.rec

		// The direct-call prefix of the old Out list: Build appends a
		// record's direct edges before its indirect fan-out, and duplicate
		// definitions (which would interleave records) are unsupported. The
		// split must not consult nd.Rec — a decoded graph has none bound.
		nDirect := 0
		for _, e := range nd.Out {
			if e.Indirect {
				break
			}
			nDirect++
		}
		if nDirect != len(rec.Calls) {
			return fallback("call structure changed")
		}
		for k := range rec.Calls {
			to := g.NodeByName(rec.Calls[k].Callee)
			if to == nil || to.ID != nd.Out[k].To {
				return fallback("call structure changed")
			}
			if nd.Out[k].LocalFreq != rec.Calls[k].Freq {
				nd.Out[k].LocalFreq = rec.Calls[k].Freq
				rs.CountsRecomputed = true
			}
		}
		oldIndirect := nd.Out[nDirect:]
		newIndirect := rec.MakesIndirectCalls && len(g.AddrTakenProcs) > 0
		if (len(oldIndirect) > 0) != newIndirect {
			return fallback("call structure changed")
		}
		if newIndirect {
			freq := rec.IndirectCallFreq / int64(len(oldIndirect))
			if freq == 0 {
				freq = 1
			}
			for _, e := range oldIndirect {
				if e.LocalFreq != freq {
					e.LocalFreq = freq
					rs.CountsRecomputed = true
				}
			}
		}

		// Only u's L_REF row can move, so a column changes exactly when
		// membership in u's reference list flips — frequency-only changes
		// leave every reference-set bit (and thus every web) as it was.
		u := nd.ID
		inNew := make(map[int]bool, len(rec.GlobalRefs))
		for _, gr := range rec.GlobalRefs {
			if vi, ok := sets.Index[gr.Name]; ok {
				inNew[vi] = true
				if !sets.LRef[u].Has(vi) {
					dirtyVars.Set(vi)
				}
			}
		}
		sets.LRef[u].ForEach(func(vi int) {
			if !inNew[vi] {
				dirtyVars.Set(vi)
			}
		})
	}
	if opt.Profile != nil {
		rs.CountsRecomputed = true
	}

	// Rebind the summary records; the node and edge sets stay as they are.
	if err := g.BindRecords(summaries); err != nil {
		return fallback(err.Error())
	}

	// The promotion-eligible universe indexes every reference-set column
	// and web; if it moved, nothing indexed by it survives.
	eligible := refsets.EligibleGlobals(g)
	if !slices.Equal(eligible, sets.Vars) {
		return fallback("eligible globals changed")
	}

	a, err := newAnalysis(opt)
	if err != nil {
		return nil, nil, nil, err
	}
	a.res.Graph = g
	a.res.Sets = sets
	a.eligible = eligible
	a.res.DB.EligibleGlobals = eligible
	a.res.Stats.EligibleGlobals = len(eligible)

	if rs.CountsRecomputed {
		a.stageCounts()
	}

	// Recompute the dirty reference-set columns in place.
	_, rsSpan := telemetry.StartSpan(ctx, "refsets")
	changedCols := refsets.RecomputeVars(g, sets, dirtyVars.Elems(nil))
	rs.DirtyVars = len(changedCols)
	rsSpan.SetInt("recomputed", int64(dirtyVars.Count()))
	rsSpan.SetInt("changed", int64(len(changedCols)))
	rsSpan.End()

	// A web must be rebuilt exactly when its variable's columns changed:
	// the edges it was grown over are unchanged.
	rebuildVars := ir.NewBitSet(len(sets.Vars))
	for _, vi := range changedCols {
		rebuildVars.Set(vi)
	}

	_, webSpan := telemetry.StartSpan(ctx, "webs")
	var identifier *webs.Identifier
	var all, rebuilt []*webs.Web
	for vi := range prev.perVar {
		if rebuildVars.Has(vi) {
			if identifier == nil {
				identifier = webs.NewIdentifier(g, sets)
			}
			prev.perVar[vi] = identifier.WebsFor(vi)
			rebuilt = append(rebuilt, prev.perVar[vi]...)
		}
		all = append(all, prev.perVar[vi]...)
	}
	for i, w := range all {
		w.ID = i + 1
		w.Color = -1
	}
	for _, w := range rebuilt {
		webs.ComputeEntries(g, w)
	}
	if rs.CountsRecomputed {
		webs.ComputePriorities(g, sets, all)
	} else if len(rebuilt) > 0 {
		webs.ComputePriorities(g, sets, rebuilt)
	}
	a.res.Webs = all
	a.finishWebs()
	rs.WebsRebuilt = len(rebuilt)
	rs.WebsReused = len(all) - len(rebuilt)
	webSpan.SetInt("rebuilt", int64(rs.WebsRebuilt))
	webSpan.SetInt("reused", int64(rs.WebsReused))
	webSpan.End()

	if err := a.stageColoring(ctx); err != nil {
		return nil, nil, nil, err
	}

	// Clusters depend only on call counts and per-node register needs.
	needsChanged := false
	need := needFunc(g)
	for id := range g.Nodes {
		if need(id) != prev.needs[id] {
			needsChanged = true
			break
		}
	}
	if a.spillMotion() {
		if rs.CountsRecomputed || needsChanged || prev.clusters == nil {
			a.stageClusters(ctx)
			prev.clusters = a.res.Clusters
			rs.ClustersRebuilt = true
		} else {
			a.res.Clusters = prev.clusters
			a.refreshClusterStats()
		}
	}
	a.stageClusterSets()
	if err := a.stageDirectives(ctx); err != nil {
		return fallback(err.Error())
	}

	telemetry.Count(ctx, "analyzer.webs", int64(a.res.Stats.WebsFound))
	telemetry.Count(ctx, "analyzer.webs_colored", int64(a.res.Stats.WebsColored))
	telemetry.Count(ctx, "analyzer.clusters", int64(a.res.Stats.Clusters))
	telemetry.Count(ctx, "analyzer.webs_reused", int64(rs.WebsReused))
	telemetry.Count(ctx, "analyzer.webs_rebuilt", int64(rs.WebsRebuilt))
	if rs.ClustersRebuilt {
		telemetry.Count(ctx, "analyzer.clusters_rebuilt", int64(a.res.Stats.Clusters))
	}

	// Refresh the stamps and cached per-node values for the next edit.
	for _, i := range changedMods {
		prev.stamps[i] = makeStamp(summaries[i])
	}
	if len(prev.needs) != len(g.Nodes) {
		prev.needs = make([]int, len(g.Nodes))
	}
	for id := range g.Nodes {
		prev.needs[id] = need(id)
	}
	return a.res, prev, rs, nil
}
