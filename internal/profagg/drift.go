// Drift detection: does the aggregated profile change the allocation?
//
// The paper's web promotion is a deterministic pipeline: identify webs
// over the call graph and reference sets (profile-independent — web
// membership depends only on which procedures may reference which
// globals), compute each web's priority from the dynamic call counts,
// discard webs the economic filter rejects, then greedily color the
// survivors in (priority desc, ID asc) order against a
// profile-independent interference relation. The profile therefore
// influences the coloring through exactly one artifact: the ordered list
// of considered webs. If the aggregate's mean profile reproduces the
// order the current allocation was trained on — same webs surviving the
// filter, same sequence — the greedy walk visits the same webs in the
// same order over the same interference structure and must assign the
// same colors, so re-analysis would change nothing and is skipped.
//
// Comparing raw count deltas against a threshold could not make that
// guarantee in either direction: tiny deltas near a filter threshold or
// a priority tie flip the order (false negative), while huge uniform
// count inflation — a fleet simply running more — changes no relative
// order at all (false positive). Order comparison is exact on the
// no-change side and only conservatively wrong on the change side: an
// order flip among webs that coloring would place identically triggers a
// re-analysis that confirms, at full precision, nothing changed.
package profagg

import (
	"ipra/internal/callgraph"
	"ipra/internal/core"
	"ipra/internal/parv"
	"ipra/internal/refsets"
	"ipra/internal/webs"
)

// DriftModel holds the allocation-relevant skeleton of one program — the
// call graph, reference sets, and web partition of the analysis it
// follows, all profile-independent — plus the considered-web priority
// order of the profile that allocation was trained on. Checking a
// candidate profile re-runs only the cheap count-dependent tail
// (ApplyProfile, ComputePriorities, core.ConsiderWebs, webs.Considered),
// not web identification.
//
// Methods are not safe for concurrent use; the Store serializes access.
type DriftModel struct {
	graph *callgraph.Graph
	sets  *refsets.Sets
	webs  []*webs.Web

	// DirectiveHash identifies the program database of the allocation
	// the model's base order belongs to; records measured under any
	// other hash are stale.
	DirectiveHash string
	// baseOrder is the considered-web ID sequence under the trained
	// profile.
	baseOrder []int
}

// NewDriftModel takes over the graph, reference sets and webs of res, an
// analysis run under the profile its allocation was trained on, and
// records that analysis's considered-web order as the base order. res is
// the model's from then on: later drift checks re-price its webs and
// re-count its graph in place.
func NewDriftModel(res *core.Result, directiveHash string) *DriftModel {
	return &DriftModel{
		graph:         res.Graph,
		sets:          res.Sets,
		webs:          res.Webs,
		DirectiveHash: directiveHash,
		baseOrder:     webIDs(webs.Considered(res.Webs)),
	}
}

// orderFor computes the considered-web priority order under p: exactly
// the sequence the analyzer's coloring strategies consume.
func (m *DriftModel) orderFor(p *parv.Profile) []int {
	m.graph.ApplyProfile(p)
	webs.ComputePriorities(m.graph, m.sets, m.webs)
	core.ConsiderWebs(m.graph, m.webs)
	return webIDs(webs.Considered(m.webs))
}

func webIDs(ws []*webs.Web) []int {
	ids := make([]int, len(ws))
	for i, w := range ws {
		ids[i] = w.ID
	}
	return ids
}

// Drifted reports whether p would change the web-priority order — and
// hence possibly the coloring — relative to the trained profile.
func (m *DriftModel) Drifted(p *parv.Profile) bool {
	order := m.orderFor(p)
	if len(order) != len(m.baseOrder) {
		return true
	}
	for i, id := range order {
		if id != m.baseOrder[i] {
			return true
		}
	}
	return false
}

// BaseOrder returns a copy of the trained considered-web order (tests,
// diagnostics).
func (m *DriftModel) BaseOrder() []int {
	return append([]int(nil), m.baseOrder...)
}

// Rebase re-anchors the model after a re-analysis: the allocation is now
// trained on p (the aggregate's mean) under the new program database
// hash, so subsequent drift checks compare against p's order.
func (m *DriftModel) Rebase(p *parv.Profile, directiveHash string) {
	m.baseOrder = m.orderFor(p)
	m.DirectiveHash = directiveHash
}
