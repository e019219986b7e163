// Package refsets implements the interprocedural dataflow of §4.1.2:
// for each procedure P and each eligible global variable,
//
//	L_REF[P] — the variable is accessed within P;
//	P_REF[P] — the variable is accessed in some procedure along a call
//	           chain from a start node to P;
//	C_REF[P] — the variable is accessed in some procedure along a call
//	           chain starting at P.
//
// The sets are propagated iteratively with the paper's equations
//
//	P_REF[P] = ∪ over predecessors i of (P_REF[i] ∪ L_REF[i])
//	C_REF[P] = ∪ over successors  i of (C_REF[i] ∪ L_REF[i])
//
// with C_REF in depth-first (bottom-up) order and P_REF in top-down order
// for fast convergence, as the paper prescribes.
package refsets

import (
	"ipra/internal/callgraph"
	"ipra/internal/ir"
	"ipra/internal/summary"
)

// Sets holds the computed reference sets over a fixed universe of eligible
// global variables.
type Sets struct {
	// Vars is the eligible-variable universe in index order.
	Vars []string
	// Index maps a variable name to its bit index.
	Index map[string]int

	LRef []ir.BitSet // indexed by node ID
	PRef []ir.BitSet
	CRef []ir.BitSet
}

// EligibleGlobals returns the globals of g's program-wide table that
// qualify for interprocedural promotion (summary.GlobalInfo.Eligible),
// sorted.
func EligibleGlobals(g *callgraph.Graph) []string {
	return summary.EligibleNames(g.Globals)
}

// Compute builds the three set families for the given eligible variables.
func Compute(g *callgraph.Graph, vars []string) *Sets {
	s := &Sets{Vars: vars, Index: make(map[string]int, len(vars))}
	for i, v := range vars {
		s.Index[v] = i
	}
	n := len(g.Nodes)
	nbits := len(vars)
	s.LRef = make([]ir.BitSet, n)
	s.PRef = make([]ir.BitSet, n)
	s.CRef = make([]ir.BitSet, n)
	// One backing array per family: a row is a fixed-width slice into it,
	// so building the sets costs three allocations instead of 3n.
	words := len(ir.NewBitSet(nbits))
	backing := make(ir.BitSet, 3*n*words)
	for i := 0; i < n; i++ {
		s.LRef[i] = backing[(3*i+0)*words : (3*i+1)*words]
		s.PRef[i] = backing[(3*i+1)*words : (3*i+2)*words]
		s.CRef[i] = backing[(3*i+2)*words : (3*i+3)*words]
	}

	// Initialize L_REF from the summary records.
	for _, nd := range g.Nodes {
		if nd.Rec == nil {
			continue
		}
		for _, gr := range nd.Rec.GlobalRefs {
			if i, ok := s.Index[gr.Name]; ok {
				s.LRef[nd.ID].Set(i)
			}
		}
	}

	// C_REF: bottom-up (postorder) sweeps until fixpoint.
	post := g.Postorder()
	for changed := true; changed; {
		changed = false
		for _, v := range post {
			cv := s.CRef[v]
			for _, e := range g.Nodes[v].Out {
				if cv.OrWith(s.CRef[e.To]) {
					changed = true
				}
				if cv.OrWith(s.LRef[e.To]) {
					changed = true
				}
			}
		}
	}

	// P_REF: top-down (reverse postorder) sweeps until fixpoint.
	rpo := g.ReversePostorder()
	for changed := true; changed; {
		changed = false
		for _, v := range rpo {
			pv := s.PRef[v]
			for _, e := range g.Nodes[v].In {
				if pv.OrWith(s.PRef[e.From]) {
					changed = true
				}
				if pv.OrWith(s.LRef[e.From]) {
					changed = true
				}
			}
		}
	}
	return s
}

// setNames returns the variable names present in the given per-node set,
// iterating set bits word-wise rather than probing every variable index.
func (s *Sets) setNames(bs ir.BitSet) []string {
	out := make([]string, 0, bs.Count())
	bs.ForEach(func(i int) { out = append(out, s.Vars[i]) })
	if len(out) == 0 {
		return nil
	}
	return out
}

// LRefNames returns L_REF[node] as variable names (for reports and tests).
func (s *Sets) LRefNames(node int) []string { return s.setNames(s.LRef[node]) }

// PRefNames returns P_REF[node] as variable names.
func (s *Sets) PRefNames(node int) []string { return s.setNames(s.PRef[node]) }

// CRefNames returns C_REF[node] as variable names.
func (s *Sets) CRefNames(node int) []string { return s.setNames(s.CRef[node]) }
