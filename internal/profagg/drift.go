// Drift detection: does the aggregated profile change the allocation?
//
// The profile reaches the program database through every count-dependent
// decision of the analyzer: web priorities and the economic filter
// (§4.1.3, §6.2), the coloring order that follows from them, and spill
// motion's cluster roots and pruning (§4.2.2). Rather than re-price any
// one of them, the model asks the analyzer itself: a profile has drifted
// exactly when analyzing the program under it yields a database whose
// hash differs from the one the current allocation was built from. The
// answer is exact in both directions — a re-analysis fires only when it
// changes directives, and every change of directives fires one.
package profagg

import (
	"context"
	"maps"

	"ipra/internal/core"
	"ipra/internal/parv"
	"ipra/internal/summary"
)

// DriftModel holds what one program's analysis reads — its module
// summaries and analyzer options, profile included — plus the directive
// hash of the allocation the fleet's binaries were built from. It never
// changes after construction, so concurrent checks may share it.
type DriftModel struct {
	sums []*summary.ModuleSummary
	opt  core.Options

	// DirectiveHash identifies the program database of the allocation
	// the model checks against; records measured under any other hash
	// are stale.
	DirectiveHash string
}

// NewDriftModel returns the model of a build that analyzed sums under
// opt, the profile it trained on or was given included, and produced the
// program database with hash directiveHash. The summaries are read, never
// written.
func NewDriftModel(sums []*summary.ModuleSummary, opt core.Options, directiveHash string) *DriftModel {
	return &DriftModel{sums: sums, opt: opt, DirectiveHash: directiveHash}
}

// Drifted reports whether analyzing the program under p yields another
// program database than the model's. The model's own profile answers
// false without an analysis. An analysis that fails counts as drift, so
// the rebuild that follows reports the failure.
func (m *DriftModel) Drifted(p *parv.Profile) bool {
	if q := m.opt.Profile; q != nil && p != nil && maps.Equal(p.Edges, q.Edges) {
		return false
	}
	opt := m.opt
	opt.Profile = p
	res, err := core.Analyze(context.TODO(), m.sums, opt)
	return err != nil || res.DB.Hash() != m.DirectiveHash
}
