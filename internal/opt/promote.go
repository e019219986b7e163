package opt

import (
	"sort"

	"ipra/internal/ir"
)

// PromoteGlobals performs intraprocedural register promotion of eligible
// global variables — the paper's description of what a "level 2" optimizer
// does (§4.1):
//
//	"Before procedure calls and at the exit point, the optimizer must insert
//	 instructions to store the register containing the promoted global back
//	 to memory. Similarly, at the entry point and just after procedure
//	 returns, the optimizer must insert instructions to load the promoted
//	 global variable from memory to the register."
//
// Within the procedure every access to the global becomes a register
// access; the transfers at entry, exit, call, and potentially-aliasing
// pointer-store boundaries are the penalty that interprocedural promotion
// later removes.
//
// eligible names the scalars never aliased anywhere in the program; skip
// names globals the program analyzer already promoted interprocedurally in
// this procedure (they are rewritten by codegen instead).
func PromoteGlobals(f *ir.Func, eligible map[string]bool, skip map[string]bool) {
	// Collect referenced promotable globals.
	type ginfo struct {
		vr       ir.Reg
		size     uint8
		modified bool
	}
	gmap := make(map[string]*ginfo)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.Load && in.Op != ir.Store {
				continue
			}
			m := in.Mem
			if m.Kind != ir.MemGlobal || !m.Singleton || m.Off != 0 {
				continue
			}
			if !eligible[m.Sym] || (skip != nil && skip[m.Sym]) {
				continue
			}
			gi := gmap[m.Sym]
			if gi == nil {
				gi = &ginfo{size: m.Size}
				gmap[m.Sym] = gi
			}
			if in.Op == ir.Store {
				gi.modified = true
			}
		}
	}
	if len(gmap) == 0 {
		return
	}
	names := make([]string, 0, len(gmap))
	for n := range gmap {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		gmap[n].vr = f.NewReg()
	}

	memRef := func(sym string, gi *ginfo) ir.MemRef {
		return ir.MemRef{Kind: ir.MemGlobal, Sym: sym, Size: gi.size, Singleton: true}
	}
	modified := 0
	for _, n := range names {
		if gmap[n].modified {
			modified++
		}
	}
	flush := func(out []ir.Instr) []ir.Instr {
		for _, n := range names {
			if gi := gmap[n]; gi.modified {
				out = append(out, ir.Instr{Op: ir.Store, A: gi.vr, Mem: memRef(n, gi)})
			}
		}
		return out
	}
	reload := func(out []ir.Instr) []ir.Instr {
		for _, n := range names {
			gi := gmap[n]
			out = append(out, ir.Instr{Op: ir.Load, Dst: gi.vr, Mem: memRef(n, gi)})
		}
		return out
	}

	// The rewritten code is one slab, each block's share sized exactly:
	// every call gains a flush before it and a reload after it, the entry
	// a reload, and each return a flush.
	sizes := make([]int, len(f.Blocks))
	total := 0
	for i, b := range f.Blocks {
		n := len(b.Instrs)
		if b.ID == 0 {
			n += len(names)
		}
		for j := range b.Instrs {
			if b.Instrs[j].Op == ir.Call {
				n += modified + len(names)
			}
		}
		if b.Term.Kind == ir.TermReturn {
			n += modified
		}
		sizes[i] = n
		total += n
	}
	slab := make([]ir.Instr, total)
	for bi, b := range f.Blocks {
		out := slab[:0:sizes[bi]]
		slab = slab[sizes[bi]:]
		if b.ID == 0 {
			out = reload(out)
		}
		for i := range b.Instrs {
			in := b.Instrs[i]
			// Rewrite direct accesses to register moves.
			if in.Op == ir.Load || in.Op == ir.Store {
				m := in.Mem
				if m.Kind == ir.MemGlobal && m.Singleton && m.Off == 0 {
					if gi, ok := gmap[m.Sym]; ok {
						if in.Op == ir.Load {
							out = append(out, ir.Instr{Op: ir.Copy, Dst: in.Dst, A: gi.vr})
						} else {
							out = append(out, ir.Instr{Op: ir.Copy, Dst: gi.vr, A: in.A})
						}
						continue
					}
				}
			}
			// Only calls can touch an eligible global: eligibility requires
			// that the variable's address is never taken anywhere in the
			// program, so pointer loads and stores cannot alias it.
			if in.Op == ir.Call {
				out = flush(out)
				out = append(out, in)
				out = reload(out)
				continue
			}
			out = append(out, in)
		}
		if b.Term.Kind == ir.TermReturn {
			out = flush(out)
		}
		if len(out) == 0 {
			out = nil
		}
		b.Instrs = out
	}
}
