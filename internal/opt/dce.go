package opt

import (
	"ipra/internal/ir"
)

// deadCodeElim removes instructions whose results are unused and that have
// no side effects, iterating until stable. It reports whether anything was
// removed. It computes liveness in lv, so the passes of one function's
// pipeline share its storage.
func deadCodeElim(f *ir.Func, lv *ir.Liveness) bool {
	changed := false
	live := ir.NewBitSet(int(f.NextReg))
	var uses []ir.Reg
	for {
		f.Recompute()
		lv.Compute(f)
		removed := false
		for _, b := range f.Blocks {
			// Walk backwards tracking liveness within the block, packing
			// the surviving instructions at the end of b.Instrs.
			live.Copy(lv.Out[b.ID])
			if b.Term.Kind == ir.TermBranch {
				live.Set(int(b.Term.Cond))
			}
			if b.Term.Kind == ir.TermReturn && b.Term.HasVal {
				live.Set(int(b.Term.Val))
			}
			k := len(b.Instrs)
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := &b.Instrs[i]
				d := in.Def()
				dead := !in.HasSideEffects() && (d == 0 || !live.Has(int(d)))
				// Writes to pinned (web) registers are observable by
				// callees and callers; they are never dead.
				if d != 0 && f.IsPinned(d) {
					dead = false
				}
				if in.Op == ir.Nop {
					dead = true
				}
				// A call whose result is unused still executes; clear Dst.
				if in.Op == ir.Call && in.Dst != 0 && !live.Has(int(in.Dst)) {
					in.Dst = 0
				}
				if dead {
					continue
				}
				if d != 0 {
					live.Clear(int(d))
				}
				uses = in.Uses(uses[:0])
				for _, u := range uses {
					live.Set(int(u))
				}
				k--
				b.Instrs[k] = *in
			}
			if k > 0 {
				removed = true
				b.Instrs = b.Instrs[:copy(b.Instrs, b.Instrs[k:])]
			}
		}
		if !removed {
			break
		}
		changed = true
	}
	return changed
}
