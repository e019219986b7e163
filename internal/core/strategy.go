// Allocation strategies: the policy the analyzer's coloring stage runs.
// The analyzer pipeline (graph → refsets → webs → *coloring* → clusters →
// directives) switches on the strategy name at exactly the starred stage:
// given the webs and their priorities, the policy decides which webs
// occupy which callee-saves registers. Everything around it — web
// identification, filtering, cluster preallocation, directive assembly,
// the verifier — is strategy-independent, so the policies run under
// identical conditions.
package core

import (
	"fmt"
	"sort"
	"strings"

	"ipra/internal/callgraph"
	"ipra/internal/refsets"
	"ipra/internal/webs"
)

// Strategy names.
const (
	// StrategyPriority is the paper's priority-based web coloring (§4.1.3)
	// — the default, and the policy every golden output is pinned to.
	StrategyPriority = "priority"
	// StrategyTiling is a reuse-interval policy after Domagała et al.:
	// webs are flattened to intervals over a linearized call graph and a
	// register is reused as soon as its previous occupant's interval
	// expires — a linear scan over web tiles.
	StrategyTiling = "tiling"
)

// DefaultStrategyName is the strategy used when Options.Strategy is empty.
const DefaultStrategyName = StrategyPriority

// strategies is the strategy table, default first. ResolveStrategy and
// StrategyNames read it, and stageColoring switches over it. The
// spill-everywhere floor of Bouchez et al. (promote nothing, no spill
// motion) is the level-2 baseline every comparison already measures.
var strategies = []string{StrategyPriority, StrategyTiling}

// ResolveStrategy canonicalizes a strategy name: "" resolves to
// DefaultStrategyName, case is folded, and unknown names error with the
// table's names.
func ResolveStrategy(name string) (string, error) {
	if name == "" {
		return DefaultStrategyName, nil
	}
	for _, s := range strategies {
		if strings.EqualFold(s, name) {
			return s, nil
		}
	}
	return "", fmt.Errorf("core: unknown allocation strategy %q (have %s)",
		name, strings.Join(strategies, ", "))
}

// StrategyNames lists the strategies in table order, the default first.
func StrategyNames() []string { return append([]string(nil), strategies...) }

// assignment is a policy's decision. Active webs carry Color in [0, 16):
// color c occupies callee-saves register CalleeSavedLast - c, and two
// active webs sharing a call graph node carry distinct colors
// (internal/verify checks exactly this for every strategy). A policy
// carries its decision in the Color field of the webs it is given, and
// changes nothing else.
type assignment struct {
	// Active lists the webs selected for promotion.
	Active []*webs.Web
	// Blankets lists synthesized blanket webs (subset of Active) under the
	// [Wall 86] blanket mode.
	Blankets []*webs.Web
	// Colored is the number of webs promoted (Stats.WebsColored).
	Colored int
}

// colorPriority is the paper's promotion policy: priority-based coloring
// onto a reserved register subset (§4.1.3, Table 4 column C), the greedy
// full-set variant (column D), or [Wall 86] blanket promotion (column
// E), selected by the Promotion mode.
func colorPriority(g *callgraph.Graph, sets *refsets.Sets, allWebs []*webs.Web, opt Options) assignment {
	var asn assignment
	switch opt.Promotion {
	case PromoteColoring:
		asn.Colored = webs.Color(allWebs, PromotionRegs)
		for _, w := range allWebs {
			if !w.Discarded && w.Color >= 0 {
				asn.Active = append(asn.Active, w)
			}
		}
	case PromoteGreedy:
		need := func(n int) int {
			nd := g.Nodes[n]
			if nd.Rec == nil {
				return 0
			}
			return nd.Rec.CalleeSavesBase
		}
		asn.Colored = webs.GreedyColor(allWebs, g, need, 16)
		for _, w := range allWebs {
			if !w.Discarded && w.Color >= 0 {
				asn.Active = append(asn.Active, w)
			}
		}
	case PromoteBlanket:
		blankets := webs.BlanketSelect(g, sets, allWebs, PromotionRegs)
		// A blanket web's loads are inserted at its entry procedures. An
		// entry without a summary record is code we never compile — the
		// unknown callers of a partial program (§7.2) — so nothing would
		// load the global and every member reached from it would read a
		// stale register. Such webs cannot be realized; drop them.
		kept := blankets[:0]
		for _, w := range blankets {
			realizable := true
			for _, e := range w.Entries {
				if g.Nodes[e].Rec == nil {
					realizable = false
					break
				}
			}
			if realizable {
				kept = append(kept, w)
			}
		}
		asn.Blankets = kept
		asn.Active = append(asn.Active, kept...)
		asn.Colored = len(asn.Active)
	}
	return asn
}

// colorTiling is a reuse-interval policy after Domagała et al.: each web
// is flattened to the interval its member nodes span in the call graph's
// reverse postorder, intervals are visited in start order, and a register
// is reused as soon as its previous occupant's interval has expired — a
// linear scan over web tiles rather than a graph coloring. Distinct call
// graph nodes occupy distinct positions, so disjoint intervals imply
// disjoint member sets and the assignment can never place interfering
// webs in one register; the cost is over-approximation (an interval
// covers nodes the web does not contain), which is precisely the trade
// the tiling family makes. It ignores the greedy and blanket modes
// (priority coloring's variants): every mode but none runs the same scan.
func colorTiling(g *callgraph.Graph, allWebs []*webs.Web, opt Options) assignment {
	var asn assignment
	if opt.Promotion == PromoteNone {
		return asn
	}
	pos := make([]int, len(g.Nodes))
	for i, id := range g.ReversePostorder() {
		pos[id] = i
	}

	cs := webs.Considered(allWebs)
	type interval struct {
		w      *webs.Web
		lo, hi int
	}
	ivs := make([]interval, 0, len(cs))
	for _, w := range cs {
		w.Color = -1
		lo, hi := len(pos), -1
		w.Nodes.ForEach(func(id int) {
			p := pos[id]
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		})
		if hi < 0 {
			continue
		}
		ivs = append(ivs, interval{w, lo, hi})
	}
	// Start order; among tiles opening at the same position, hotter webs
	// claim a register first.
	sort.SliceStable(ivs, func(i, j int) bool {
		if ivs[i].lo != ivs[j].lo {
			return ivs[i].lo < ivs[j].lo
		}
		if ivs[i].w.Priority != ivs[j].w.Priority {
			return ivs[i].w.Priority > ivs[j].w.Priority
		}
		return ivs[i].w.ID < ivs[j].w.ID
	})

	// busyUntil[c] is the end position of register c's current occupant.
	busyUntil := make([]int, PromotionRegs)
	for c := range busyUntil {
		busyUntil[c] = -1
	}
	for _, iv := range ivs {
		reg := -1
		for c := range busyUntil {
			if busyUntil[c] < iv.lo {
				reg = c
				break
			}
		}
		if reg < 0 {
			continue // no expired register: the web stays in memory
		}
		iv.w.Color = reg
		busyUntil[reg] = iv.hi
		asn.Active = append(asn.Active, iv.w)
		asn.Colored++
	}
	return asn
}
