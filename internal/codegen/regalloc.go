package codegen

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/regs"
)

// allocResult reports what the allocator used, for prologue generation.
type allocResult struct {
	usedCallee regs.Set // CALLEE registers that need save/restore
	usedMSpill regs.Set // MSPILL registers actually used (root saves all anyway)
	spillSlots int32    // number of 4-byte spill slots appended to the frame
}

// defUse appends the instruction's uses to buf and returns (def, uses).
// Physical and virtual registers both participate; r0 is ignored.
func (in *linstr) defUse(buf []vreg) (vreg, []vreg) {
	use := func(v vreg) {
		if v != 0 {
			buf = append(buf, v)
		}
	}
	switch in.op {
	case parv.LDI, parv.NOP, parv.B:
		// no register uses
	case parv.MOV, parv.ADDI, parv.SUBI, parv.ANDI, parv.ORI, parv.XORI,
		parv.SHLI, parv.SHRI, parv.NEG, parv.NOT, parv.CMPI, parv.LDW:
		use(in.ra)
	case parv.ADD, parv.SUB, parv.MUL, parv.DIV, parv.REM,
		parv.AND, parv.OR, parv.XOR, parv.SHL, parv.SHR, parv.CMP:
		use(in.ra)
		use(in.rb)
	case parv.STW:
		use(in.ra)
		use(in.rb)
	case parv.CB:
		use(in.ra)
		use(in.rb)
	case parv.CBI, parv.BV:
		use(in.ra)
	case parv.BL, parv.BLR:
		for _, a := range in.argsUsed {
			use(a)
		}
	}
	switch in.op {
	case parv.STW, parv.B, parv.CB, parv.CBI, parv.BV, parv.NOP:
		return -1, buf
	case parv.BL, parv.BLR:
		return vreg(parv.RegRP), buf
	default:
		return in.rd, buf
	}
}

// hasEffect reports whether the instruction must be kept even if its
// result is dead.
func (in *linstr) hasEffect() bool {
	switch in.op {
	case parv.STW, parv.BL, parv.BLR, parv.BV, parv.B, parv.CB, parv.CBI, parv.SYS:
		return true
	case parv.DIV, parv.REM:
		return true
	}
	// Writes to physical registers always matter (arg setup, returns).
	return in.rd.isPhys() && in.rd != 0
}

// interference is the interference relation over all n registers of a
// function, physical and virtual, as an n×n bit matrix: row v is the set
// of v's neighbours. hasAdj marks the registers with any neighbour.
type interference struct {
	words  int // uint64 words per row
	matrix []uint64
	hasAdj []bool
}

func newInterference(n int) *interference {
	words := (n + 63) / 64
	return &interference{words: words, matrix: make([]uint64, n*words), hasAdj: make([]bool, n)}
}

func (g *interference) row(v vreg) ir.BitSet {
	i := int(v) * g.words
	return ir.BitSet(g.matrix[i : i+g.words : i+g.words])
}

// add records that a and b interfere. r0 interferes with nothing.
func (g *interference) add(a, b vreg) {
	if a == b || a == 0 || b == 0 {
		return
	}
	g.row(a).Set(int(b))
	g.row(b).Set(int(a))
	g.hasAdj[a], g.hasAdj[b] = true, true
}

// allocate colors the function's virtual registers using the program
// database directives, spilling as needed, and rewrites the LIR to
// physical registers. It implements §5's allocation discipline:
//
//	"The CALLER set ... is examined to obtain caller-saves registers for
//	 local coloring. For callee-saves registers, the FREE set is checked
//	 before the CALLEE set."
func allocate(f *lfunc, dir *pdb.ProcDirectives, clobberOf func(callee string) regs.Set) (*allocResult, error) {
	res := &allocResult{}

	// Registers clobbered by a call when nothing better is known: anything
	// that may not hold a live value across calls — CALLER and MSPILL sets
	// — plus the linkage registers rp and ret0.
	worstClobber := dir.Caller.Union(dir.MSpill).Add(parv.RegRP).Add(parv.RegRet)
	clobberFor := func(in *linstr) regs.Set {
		if in.op == parv.BL {
			if c := clobberOf(in.sym); !c.Empty() {
				// Never exceed the worst case (a callee cannot clobber
				// registers this procedure treats as preserved); always
				// include the linkage registers, and keep this procedure's
				// MSPILL set call-clobbered — by definition those registers
				// may not hold values across calls (§4.2.3).
				return c.Intersect(worstClobber).
					Union(dir.MSpill).Add(parv.RegRP).Add(parv.RegRet)
			}
		}
		return worstClobber
	}

	// Call-crossing values: FREE first (no cost), then caller-saves
	// registers (succeed only when every crossed call's clobber set spares
	// them — the §7.6.2 caller-saves preallocation), then CALLEE
	// (save/restore cost).
	crossPref := append(dir.Free.Regs(), dir.Caller.Regs()...)
	crossPref = append(crossPref, dir.Callee.Regs()...)
	localPref := dir.Caller.Regs()
	localPref = append(localPref, dir.MSpill.Regs()...)
	localPref = append(localPref, dir.Free.Regs()...)
	localPref = append(localPref, dir.Callee.Regs()...)

	// Every virtual register from orig on is a temporary spillVreg made:
	// a reload or a store source with one definition and one use. Those
	// are colored ahead of every original register (spill everywhere: a
	// spilled value's loads and stores are fixed, only the choice of which
	// values to spill is open), so a failure always spills an original
	// register, each at most once, and orig+1 rounds suffice.
	orig := vregBase + vreg(f.nvregs)
	for round := 0; ; round++ {
		if round > int(orig-vregBase) {
			return nil, fmt.Errorf("codegen: %s: register allocation did not converge", f.name)
		}
		liveOut := deadElim(f)

		n := int(vregBase) + int(f.nvregs)
		g := newInterference(n)
		crosses := make([]bool, n)
		cost := make([]float64, n)

		live := ir.NewBitSet(n)
		var buf []vreg
		for _, b := range f.blocks {
			live.Copy(liveOut[b.id])
			w := depthWeight(b.loopDepth)
			for i := len(b.instrs) - 1; i >= 0; i-- {
				in := &b.instrs[i]
				var def vreg
				def, buf = in.defUse(buf[:0])

				if in.isCall {
					clobber := uint32(clobberFor(in))
					live.ForEach(func(x int) {
						v := vreg(x)
						if v != def && !v.isPhys() {
							crosses[v] = true
						}
						for c := clobber; c != 0; c &= c - 1 {
							g.add(vreg(bits.TrailingZeros32(c)), v)
						}
					})
				}

				if def > 0 {
					live.ForEach(func(x int) {
						// Moves don't make source and destination interfere.
						if v := vreg(x); in.op != parv.MOV || v != in.ra {
							g.add(def, v)
						}
					})
					live.Clear(int(def))
					if !def.isPhys() {
						cost[def] += w
					}
				}
				if in.isCall {
					live.Clear(int(parv.RegRet)) // calls define ret0
				}
				for _, u := range buf {
					live.Set(int(u))
					if !u.isPhys() {
						cost[u] += w
					}
				}
			}
		}

		// Color spill temporaries first, then in priority (cost) order.
		order := make([]vreg, 0, f.nvregs)
		for v := vregBase; v < vreg(n); v++ {
			if cost[v] > 0 || g.hasAdj[v] {
				order = append(order, v)
			}
		}
		sort.SliceStable(order, func(i, j int) bool {
			if ti, tj := order[i] >= orig, order[j] >= orig; ti != tj {
				return ti
			}
			return cost[order[i]] > cost[order[j]]
		})

		// assign[v] is v's physical register, or -1 while it has none.
		assign := make([]int16, n)
		for i := range assign {
			assign[i] = -1
		}
		var failed vreg = -1
		for _, v := range order {
			// Registers v may not take: its physical neighbours and the
			// registers of its colored virtual neighbours.
			var forbidden regs.Set
			g.row(v).ForEach(func(x int) {
				if nb := vreg(x); nb.isPhys() {
					forbidden = forbidden.Add(uint8(nb))
				} else if r := assign[nb]; r >= 0 {
					forbidden = forbidden.Add(uint8(r))
				}
			})
			prefs := localPref
			if crosses[v] {
				prefs = crossPref
			}
			for _, r := range prefs {
				if !forbidden.Has(r) {
					assign[v] = int16(r)
					break
				}
			}
			if assign[v] < 0 {
				failed = v
				break
			}
		}

		if failed >= orig {
			return nil, fmt.Errorf("codegen: %s: no register left for spill temporary %s of %s", f.name, failed, instrOf(f, failed))
		}
		if failed >= 0 {
			spillVreg(f, failed, res)
			continue
		}

		// Success: rewrite and account for save/restore needs.
		for _, r := range assign {
			if r < 0 {
				continue
			}
			if dir.Callee.Has(uint8(r)) {
				res.usedCallee = res.usedCallee.Add(uint8(r))
			}
			if dir.MSpill.Has(uint8(r)) {
				res.usedMSpill = res.usedMSpill.Add(uint8(r))
			}
		}
		rewrite(f, assign)
		return res, nil
	}
}

func depthWeight(d int) float64 {
	w := 1.0
	for i := 0; i < d && i < 6; i++ {
		w *= 10
	}
	return w
}

// lirLiveness computes live-out sets per block over all n registers in
// sets, 4 sets per block, which it clears first.
func lirLiveness(f *lfunc, sets []ir.BitSet) []ir.BitSet {
	for _, s := range sets {
		clear(s)
	}
	nb := len(f.blocks)
	use, def := sets[:nb], sets[nb:2*nb]
	liveIn, liveOut := sets[2*nb:3*nb], sets[3*nb:]
	var buf []vreg
	for _, b := range f.blocks {
		u, d := use[b.id], def[b.id]
		for i := range b.instrs {
			in := &b.instrs[i]
			var dd vreg
			dd, buf = in.defUse(buf[:0])
			for _, x := range buf {
				if !d.Has(int(x)) {
					u.Set(int(x))
				}
			}
			if dd > 0 {
				d.Set(int(dd))
			}
			if in.isCall {
				d.Set(int(parv.RegRet))
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := nb - 1; i >= 0; i-- {
			b := f.blocks[i]
			out := liveOut[b.id]
			for _, s := range b.succs {
				out.OrWith(liveIn[s])
			}
			// in = use ∪ (out − def). Out sets only grow, so in sets do
			// too, and a sweep that changes no in set is the fixpoint.
			in, u, d := liveIn[b.id], use[b.id], def[b.id]
			for w := range in {
				if x := u[w] | (out[w] &^ d[w]); x != in[w] {
					in[w] = x
					changed = true
				}
			}
		}
	}
	return liveOut
}

// deadElim removes instructions that define virtual registers nobody
// reads, compacting each block in place, and returns the live-out sets of
// the code that remains.
func deadElim(f *lfunc) []ir.BitSet {
	n := int(vregBase) + int(f.nvregs)
	live := ir.NewBitSet(n)
	sets := ir.NewBitSets(4*len(f.blocks), n)
	var buf []vreg
	for {
		liveOut := lirLiveness(f, sets)
		removed := false
		for _, b := range f.blocks {
			live.Copy(liveOut[b.id])
			// Walking backwards, survivors are packed at the end.
			k := len(b.instrs)
			for i := len(b.instrs) - 1; i >= 0; i-- {
				in := &b.instrs[i]
				var def vreg
				def, buf = in.defUse(buf[:0])
				if !in.hasEffect() && def > 0 && !def.isPhys() && !live.Has(int(def)) {
					continue
				}
				if def > 0 {
					live.Clear(int(def))
				}
				if in.isCall {
					live.Clear(int(parv.RegRet))
				}
				for _, u := range buf {
					live.Set(int(u))
				}
				k--
				b.instrs[k] = *in
			}
			if k > 0 {
				removed = true
				b.instrs = b.instrs[:copy(b.instrs, b.instrs[k:])]
			}
		}
		if !removed {
			return liveOut
		}
	}
}

// instrOf names the first instruction that mentions v, for diagnostics.
func instrOf(f *lfunc, v vreg) string {
	var buf []vreg
	for _, b := range f.blocks {
		for i := range b.instrs {
			def, uses := b.instrs[i].defUse(buf[:0])
			buf = uses
			if def == v || slices.Contains(uses, v) {
				return fmt.Sprintf("block %d instruction %d (%s)", b.id, i, b.instrs[i].op)
			}
		}
	}
	return "no instruction"
}

// spillVreg gives v a frame slot, rewriting each definition to store and
// each use to reload through a fresh short-lived register.
func spillVreg(f *lfunc, v vreg, res *allocResult) {
	slot := res.spillSlots
	res.spillSlots++
	off := f.outArgs + f.frameLocal + slot*4

	var buf []vreg
	for _, b := range f.blocks {
		var out []linstr
		for i := range b.instrs {
			in := b.instrs[i]
			def, uses := in.defUse(buf[:0])
			buf = uses

			usesV := false
			for _, u := range uses {
				if u == v {
					usesV = true
				}
			}
			if usesV {
				t := f.newVreg()
				out = append(out, linstr{op: parv.LDW, rd: t, ra: vreg(parv.RegSP), imm: off, memSize: 4})
				replaceUses(&in, v, t)
			}
			if def == v {
				t := f.newVreg()
				in.rd = t
				out = append(out, in)
				out = append(out, linstr{op: parv.STW, ra: vreg(parv.RegSP), rb: t, imm: off, memSize: 4})
				continue
			}
			out = append(out, in)
		}
		b.instrs = out
	}
}

func replaceUses(in *linstr, old, nw vreg) {
	if in.ra == old {
		in.ra = nw
	}
	if in.rb == old {
		in.rb = nw
	}
	for i := range in.argsUsed {
		if in.argsUsed[i] == old {
			in.argsUsed[i] = nw
		}
	}
}

// rewrite substitutes assigned physical registers (assign[v], or -1 for
// none) and drops identity moves, compacting each block in place.
func rewrite(f *lfunc, assign []int16) {
	sub := func(v vreg) vreg {
		if v.isPhys() {
			return v
		}
		if r := assign[v]; r >= 0 {
			return vreg(r)
		}
		// Unreferenced leftover (defined but dead): map to the scratch
		// register; deadElim should have removed these.
		return vreg(parv.RegAT)
	}
	for _, b := range f.blocks {
		k := 0
		for i := range b.instrs {
			in := &b.instrs[i]
			in.rd = sub(in.rd)
			in.ra = sub(in.ra)
			in.rb = sub(in.rb)
			for j := range in.argsUsed {
				in.argsUsed[j] = sub(in.argsUsed[j])
			}
			if in.op == parv.MOV && in.rd == in.ra {
				continue // identity move
			}
			b.instrs[k] = *in
			k++
		}
		b.instrs = b.instrs[:k]
	}
}
