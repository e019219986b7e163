// The Strategy interface: web promotion and its interaction with spill
// motion, pluggable behind one seam. The analyzer pipeline (graph →
// refsets → webs → *coloring* → clusters → directives) delegates exactly
// the starred stage to a Strategy: given the webs and their priorities,
// the strategy decides which webs occupy which callee-saves registers and
// whether spill motion may run at all. Everything around it — web
// identification, filtering, cluster preallocation, directive assembly,
// the verifier — is strategy-independent, which is what lets competing
// policies from the related work run under identical conditions.
package core

import (
	"context"
	"fmt"
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
	// StrategySpillEverywhere promotes nothing and vetoes spill motion —
	// every procedure keeps the standard linkage convention. It is the
	// tractable lower-bound oracle of Bouchez et al.: any competing
	// policy must save at least as many cycles as this one.
	StrategySpillEverywhere = "spill-everywhere"
	// StrategyTiling is a reuse-interval policy after Domagała et al.:
	// webs are flattened to intervals over a linearized call graph and a
	// register is reused as soon as its previous occupant's interval
	// expires — a linear scan over web tiles.
	StrategyTiling = "tiling"
)

// DefaultStrategyName is the strategy used when Options.Strategy is empty.
const DefaultStrategyName = StrategyPriority

// StrategyInput is everything a strategy may consult: the call graph,
// the reference-set families, and the identified webs with priorities
// computed and filters applied (discarded webs are marked, not removed).
type StrategyInput struct {
	Graph *callgraph.Graph
	Sets  *refsets.Sets
	// Webs is the full identified web list. Strategies must color only
	// webs with Discarded == false; webs.Considered gives them in
	// priority order.
	Webs []*webs.Web
	// Opt carries the analyzer options (promotion mode, register budget).
	Opt Options
}

// Assignment is a strategy's decision. Active webs must carry Color in
// [0, 16): color c occupies callee-saves register CalleeSavedLast - c,
// and two active webs sharing a call graph node must carry distinct
// colors (internal/verify checks exactly this for every strategy).
type Assignment struct {
	// Active lists the webs selected for promotion.
	Active []*webs.Web
	// Blankets lists synthesized blanket webs (subset of Active), for
	// strategies that implement the [Wall 86] blanket mode.
	Blankets []*webs.Web
	// Colored is the number of webs the strategy promoted (Stats.WebsColored).
	Colored int
	// DisableSpillMotion vetoes the cluster stages even when
	// Options.SpillMotion is on. The spill-everywhere oracle uses this to
	// pin every procedure to the standard linkage convention.
	DisableSpillMotion bool
}

// Strategy is one allocation policy: it selects the promoted webs and
// assigns their registers. Implementations must be deterministic — every
// build re-runs them, and incremental, parallel and remote builds must
// equal a clean one byte for byte — and safe for concurrent use (one
// table entry serves all runs).
type Strategy interface {
	// Name returns the table name, lower-case and stable.
	Name() string
	// Allocate decides the promotion for one analysis. It may mutate the
	// Color field of the webs in in.Webs (that is how the assignment is
	// carried), but nothing else.
	Allocate(ctx context.Context, in *StrategyInput) (*Assignment, error)
}

// strategies is the strategy table, default first: the paper's priority
// coloring, the spill-everywhere oracle of Bouchez et al., and the tiling
// policy of Domagała et al. StrategyByName, ResolveStrategy and
// StrategyNames all read it.
var strategies = []Strategy{priorityStrategy{}, spillEverywhereStrategy{}, tilingStrategy{}}

// StrategyByName looks up a strategy. The empty name resolves to the
// default; lookup is case-insensitive, and an unknown name errors with
// the table's names.
func StrategyByName(name string) (Strategy, error) {
	if name == "" {
		return strategies[0], nil
	}
	for _, s := range strategies {
		if strings.EqualFold(s.Name(), name) {
			return s, nil
		}
	}
	return nil, fmt.Errorf("core: unknown allocation strategy %q (have %s)",
		name, strings.Join(StrategyNames(), ", "))
}

// ResolveStrategy canonicalizes a strategy name: "" resolves to
// DefaultStrategyName, case is folded, and unknown names error with the
// table's names.
func ResolveStrategy(name string) (string, error) {
	s, err := StrategyByName(name)
	if err != nil {
		return "", err
	}
	return s.Name(), nil
}

// StrategyNames lists the strategies in table order, the default first.
func StrategyNames() []string {
	names := make([]string, len(strategies))
	for i, s := range strategies {
		names[i] = s.Name()
	}
	return names
}

// coloringRegs clamps the configured web-coloring register budget to the
// callee-saves capacity (the paper's experiments use 6 of 16).
func coloringRegs(opt Options) int {
	k := opt.ColoringRegs
	if k <= 0 {
		k = 6
	}
	if k > 16 {
		k = 16
	}
	return k
}
