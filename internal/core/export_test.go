package core

import (
	"ipra/internal/callgraph"
	"ipra/internal/clusters"
	"ipra/internal/refsets"
)

// Bridges for the analyzer-state tests (state_test.go). They analyze the
// summaries phase 1 writes, through package ipra, which imports core, so
// they live in package core_test.

var OptionsKey = optionsKey

// Artifacts returns the call graph, reference sets and spill clusters st
// encodes, for the tests that corrupt them.
func (st *State) Artifacts() (*callgraph.Graph, *refsets.Sets, *clusters.Identification) {
	return st.g, st.sets, st.clusters
}
