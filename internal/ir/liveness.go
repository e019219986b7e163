package ir

// Liveness holds per-block live-in/live-out sets for a function's virtual
// registers.
type Liveness struct {
	In  []BitSet
	Out []BitSet

	// sets and words back In, Out, the per-block use and def sets and a
	// working set, so that Compute can reuse them for the next pass.
	sets  []BitSet
	words []uint64
}

// ComputeLiveness runs the classic backward dataflow over the CFG. The
// function's Preds/Succs must be current (call Recompute first).
func ComputeLiveness(f *Func) *Liveness {
	lv := new(Liveness)
	lv.Compute(f)
	return lv
}

// Compute recomputes lv for f as ComputeLiveness does, reusing the storage
// of lv's last computation when it is large enough: a pass that runs to a
// fixpoint allocates its liveness once.
func (lv *Liveness) Compute(f *Func) {
	n := len(f.Blocks)
	w := (int(f.NextReg) + 64) / 64
	k := 4*n + 1
	if cap(lv.words) < k*w {
		lv.words = make([]uint64, k*w)
	} else {
		lv.words = lv.words[:k*w]
		clear(lv.words)
	}
	if cap(lv.sets) < k {
		lv.sets = make([]BitSet, k)
	}
	sets := lv.sets[:k]
	for i := range sets {
		sets[i] = BitSet(lv.words[i*w : (i+1)*w : (i+1)*w])
	}
	lv.In, lv.Out = sets[:n:n], sets[n:2*n:2*n]
	use, def, tmp := sets[2*n:3*n], sets[3*n:4*n], sets[4*n]

	var scratch []Reg
	for _, b := range f.Blocks {
		u, d := use[b.ID], def[b.ID]
		for k := range b.Instrs {
			in := &b.Instrs[k]
			scratch = in.Uses(scratch[:0])
			for _, r := range scratch {
				if !d.Has(int(r)) {
					u.Set(int(r))
				}
			}
			if dr := in.Def(); dr != 0 {
				d.Set(int(dr))
			}
		}
		if b.Term.Kind == TermBranch && b.Term.Cond != 0 {
			if !d.Has(int(b.Term.Cond)) {
				u.Set(int(b.Term.Cond))
			}
		}
		if b.Term.Kind == TermReturn && b.Term.HasVal {
			if !d.Has(int(b.Term.Val)) {
				u.Set(int(b.Term.Val))
			}
		}
	}

	// Iterate to fixpoint, visiting blocks in reverse order for fast
	// convergence on reducible CFGs.
	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := lv.Out[i]
			for _, s := range b.Succs {
				if out.OrWith(lv.In[s]) {
					changed = true
				}
			}
			// in = use ∪ (out - def)
			tmp.Copy(out)
			for w := range tmp {
				tmp[w] &^= def[i][w]
				tmp[w] |= use[i][w]
			}
			if !tmp.Equal(lv.In[i]) {
				lv.In[i].Copy(tmp)
				changed = true
			}
		}
	}
}
