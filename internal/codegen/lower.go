package codegen

import (
	"fmt"

	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/pdb"
)

// lowerer translates one IR function to LIR.
type lowerer struct {
	f    *lfunc
	irf  *ir.Func
	mod  *ir.Module
	dir  *pdb.ProcDirectives
	prom map[string]uint8 // web-promoted global -> dedicated register

	// regs is what lowering knows of each IR register, indexed by
	// register number (registers run from 1 to the function's NextReg).
	regs []regInfo
	// gen numbers the block being lowered: a register holds a known
	// constant only while its regInfo.constGen equals gen, so starting a
	// block forgets every constant at once.
	gen uint32

	cur *lblock
}

// regInfo is lowering's table entry for one IR register.
type regInfo struct {
	vr       vreg  // its virtual register; 0 until first lowered
	uses     int32 // uses in the function, to fold compares into branches
	constVal int32 // its value, while it holds a known constant
	constGen uint32
}

func lower(irf *ir.Func, mod *ir.Module, dir *pdb.ProcDirectives) (*lfunc, error) {
	if irf.NextReg < 0 {
		return nil, fmt.Errorf("codegen: %s: register count %d out of range", irf.Name, irf.NextReg)
	}
	lo := &lowerer{
		f:    &lfunc{name: irf.Name, frameLocal: irf.FrameSize},
		irf:  irf,
		mod:  mod,
		dir:  dir,
		prom: make(map[string]uint8),
		regs: make([]regInfo, int(irf.NextReg)+1),
	}
	for _, p := range dir.Promoted {
		lo.prom[p.Name] = p.Reg
	}

	// Use counts for compare/branch folding, and the size of each block's
	// code: the LIR of the whole function is carved from one slab. Every
	// register the table is indexed by is checked here, so a corrupt
	// phase-1 record is an error, not an index out of range.
	check := func(r ir.Reg) error {
		if r < 0 || r > irf.NextReg {
			return fmt.Errorf("codegen: %s: register %d out of range", irf.Name, r)
		}
		return nil
	}
	count := func(r ir.Reg) error {
		if err := check(r); err != nil {
			return err
		}
		lo.regs[r].uses++
		return nil
	}
	for _, r := range irf.Params {
		if err := check(r); err != nil {
			return nil, err
		}
	}
	sizes := make([]int, len(irf.Blocks))
	total, edges := 0, 0
	var uses []ir.Reg
	for bi, b := range irf.Blocks {
		n := 0
		if bi == 0 {
			n = len(irf.Params)
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			uses = in.Uses(uses[:0])
			for _, u := range uses {
				if err := count(u); err != nil {
					return nil, err
				}
			}
			if err := check(in.Def()); err != nil {
				return nil, err
			}
			n += lirLen(in)
			if in.Op == ir.Call {
				lo.f.makesCalls = true
				extra := len(in.Args) - len(parv.ArgRegs)
				if extra > 0 && int32(extra*4) > lo.f.outArgs {
					lo.f.outArgs = int32(extra * 4)
				}
			}
		}
		switch b.Term.Kind {
		case ir.TermJump:
			n++
			edges++
		case ir.TermBranch:
			if err := count(b.Term.Cond); err != nil {
				return nil, err
			}
			n += 2
			edges += 2
		case ir.TermReturn:
			n++
			if b.Term.HasVal {
				if err := count(b.Term.Val); err != nil {
					return nil, err
				}
				n++
			}
		}
		sizes[bi] = n
		total += n
	}

	// Pre-create blocks so branch targets resolve.
	slab := make([]linstr, total)
	succs := make([]int, edges)
	blocks := make([]lblock, len(irf.Blocks))
	lo.f.blocks = make([]*lblock, len(irf.Blocks))
	for i, b := range irf.Blocks {
		n := sizes[i]
		blocks[i] = lblock{id: b.ID, loopDepth: b.LoopDepth, instrs: slab[:0:n]}
		slab = slab[n:]
		lo.f.blocks[i] = &blocks[i]
	}

	for _, b := range irf.Blocks {
		lo.cur = lo.f.blocks[b.ID]
		lo.gen++
		if b.ID == 0 {
			lo.lowerParams()
		}
		for i := range b.Instrs {
			if err := lo.lowerInstr(&b.Instrs[i]); err != nil {
				return nil, err
			}
		}
		succs = lo.lowerTerm(b, succs)
	}
	return lo.f, nil
}

// lirLen is the number of LIR instructions lowerInstr emits for in.
func lirLen(in *ir.Instr) int {
	switch in.Op {
	case ir.Nop:
		return 0
	case ir.Call:
		n := len(in.Args) + 1
		if in.Dst != 0 {
			n++
		}
		return n
	}
	return 1
}

func (lo *lowerer) vr(r ir.Reg) vreg {
	if phys, ok := lo.irf.Pinned[r]; ok {
		return vreg(phys)
	}
	if v := lo.regs[r].vr; v != 0 {
		return v
	}
	v := lo.f.newVreg()
	lo.regs[r].vr = v
	return v
}

// constOf returns r's value if it holds a constant known in this block.
func (lo *lowerer) constOf(r ir.Reg) (int32, bool) {
	ri := &lo.regs[r]
	return ri.constVal, ri.constGen == lo.gen
}

func (lo *lowerer) setConst(r ir.Reg, v int32) {
	lo.regs[r].constVal, lo.regs[r].constGen = v, lo.gen
}

func (lo *lowerer) forgetConst(r ir.Reg) { lo.regs[r].constGen = 0 }

func (lo *lowerer) emit(in linstr) { lo.cur.instrs = append(lo.cur.instrs, in) }

func (lo *lowerer) lowerParams() {
	for i, pr := range lo.irf.Params {
		if i < len(parv.ArgRegs) {
			lo.emit(linstr{op: parv.MOV, rd: lo.vr(pr), ra: vreg(parv.ArgRegs[i])})
		} else {
			lo.emit(linstr{
				op: parv.LDW, rd: lo.vr(pr), ra: vreg(parv.RegSP),
				imm: int32(i - len(parv.ArgRegs)), memSize: 4, fixup: fixIncomingArg,
			})
		}
	}
}

// binOpFor maps IR binary ops to (register form, immediate form). An
// immediate form of NOP means no immediate variant exists.
func binOpFor(op ir.Op) (parv.Op, parv.Op, bool) {
	switch op {
	case ir.Add:
		return parv.ADD, parv.ADDI, true
	case ir.Sub:
		return parv.SUB, parv.SUBI, true
	case ir.Mul:
		return parv.MUL, parv.NOP, true
	case ir.Div:
		return parv.DIV, parv.NOP, true
	case ir.Rem:
		return parv.REM, parv.NOP, true
	case ir.And:
		return parv.AND, parv.ANDI, true
	case ir.Or:
		return parv.OR, parv.ORI, true
	case ir.Xor:
		return parv.XOR, parv.XORI, true
	case ir.Shl:
		return parv.SHL, parv.SHLI, true
	case ir.Shr:
		return parv.SHR, parv.SHRI, true
	}
	return parv.NOP, parv.NOP, false
}

func condFor(op ir.Op) (parv.Cond, bool) {
	switch op {
	case ir.CmpEQ:
		return parv.EQ, true
	case ir.CmpNE:
		return parv.NE, true
	case ir.CmpLT:
		return parv.LT, true
	case ir.CmpLE:
		return parv.LE, true
	case ir.CmpGT:
		return parv.GT, true
	case ir.CmpGE:
		return parv.GE, true
	}
	return parv.EQ, false
}

func (lo *lowerer) lowerInstr(in *ir.Instr) error {
	switch in.Op {
	case ir.Nop:
		return nil

	case ir.Const:
		lo.setConst(in.Dst, int32(in.Imm))
		lo.emit(linstr{op: parv.LDI, rd: lo.vr(in.Dst), imm: int32(in.Imm)})
		return nil

	case ir.Copy:
		lo.emit(linstr{op: parv.MOV, rd: lo.vr(in.Dst), ra: lo.vr(in.A)})
		if c, ok := lo.constOf(in.A); ok {
			lo.setConst(in.Dst, c)
		} else {
			lo.forgetConst(in.Dst)
		}
		return nil

	case ir.Neg:
		lo.forgetConst(in.Dst)
		lo.emit(linstr{op: parv.NEG, rd: lo.vr(in.Dst), ra: lo.vr(in.A)})
		return nil

	case ir.Not:
		lo.forgetConst(in.Dst)
		lo.emit(linstr{op: parv.NOT, rd: lo.vr(in.Dst), ra: lo.vr(in.A)})
		return nil

	case ir.Load:
		lo.forgetConst(in.Dst)
		return lo.lowerLoad(in)

	case ir.Store:
		return lo.lowerStore(in)

	case ir.AddrGlobal:
		lo.forgetConst(in.Dst)
		kind := parv.RelFuncAddr
		if lo.mod.GlobalByName(in.Callee) != nil {
			kind = parv.RelDataAddr
		}
		lo.emit(linstr{
			op: parv.LDI, rd: lo.vr(in.Dst),
			sym: in.Callee, relKind: kind, hasRel: true, imm: int32(in.Imm),
		})
		return nil

	case ir.AddrFrame:
		lo.forgetConst(in.Dst)
		lo.emit(linstr{op: parv.ADDI, rd: lo.vr(in.Dst), ra: vreg(parv.RegSP), imm: lo.f.outArgs + int32(in.Imm)})
		return nil

	case ir.Call:
		return lo.lowerCall(in)
	}

	// Comparisons. The result is no constant; the operands are read
	// before that is recorded, as Dst may be one of them.
	if c, ok := condFor(in.Op); ok {
		if imm, isC := lo.constOf(in.B); isC {
			lo.emit(linstr{op: parv.CMPI, rd: lo.vr(in.Dst), ra: lo.vr(in.A), imm: imm, cond: c})
		} else {
			lo.emit(linstr{op: parv.CMP, rd: lo.vr(in.Dst), ra: lo.vr(in.A), rb: lo.vr(in.B), cond: c})
		}
		lo.forgetConst(in.Dst)
		return nil
	}

	// Binary arithmetic.
	if rop, iop, ok := binOpFor(in.Op); ok {
		if imm, isC := lo.constOf(in.B); isC && iop != parv.NOP {
			lo.emit(linstr{op: iop, rd: lo.vr(in.Dst), ra: lo.vr(in.A), imm: imm})
		} else if imm, isC := lo.constOf(in.A); isC && iop != parv.NOP && in.Op.IsCommutative() {
			// Commutative ops can fold a constant left operand.
			lo.emit(linstr{op: iop, rd: lo.vr(in.Dst), ra: lo.vr(in.B), imm: imm})
		} else {
			lo.emit(linstr{op: rop, rd: lo.vr(in.Dst), ra: lo.vr(in.A), rb: lo.vr(in.B)})
		}
		lo.forgetConst(in.Dst)
		return nil
	}
	return fmt.Errorf("codegen: %s: cannot lower %s", lo.f.name, in)
}

func (lo *lowerer) lowerLoad(in *ir.Instr) error {
	m := in.Mem
	switch m.Kind {
	case ir.MemGlobal:
		// Web-promoted global: a register reference, no memory access (§5).
		if reg, ok := lo.prom[m.Sym]; ok && m.Singleton && m.Off == 0 {
			lo.emit(linstr{op: parv.MOV, rd: lo.vr(in.Dst), ra: vreg(reg)})
			return nil
		}
		lo.emit(linstr{
			op: parv.LDW, rd: lo.vr(in.Dst), ra: vreg(parv.RegDP),
			memSize: m.Size, singleton: m.Singleton,
			sym: m.Sym, relKind: parv.RelDataDisp, hasRel: true, imm: m.Off,
		})
	case ir.MemFrame:
		lo.emit(linstr{
			op: parv.LDW, rd: lo.vr(in.Dst), ra: vreg(parv.RegSP),
			imm: lo.f.outArgs + m.Off, memSize: m.Size, singleton: m.Singleton,
		})
	case ir.MemPtr:
		lo.emit(linstr{
			op: parv.LDW, rd: lo.vr(in.Dst), ra: lo.vr(m.Base),
			imm: m.Off, memSize: m.Size, singleton: m.Singleton,
		})
	default:
		return fmt.Errorf("codegen: %s: load with no address", lo.f.name)
	}
	return nil
}

func (lo *lowerer) lowerStore(in *ir.Instr) error {
	m := in.Mem
	switch m.Kind {
	case ir.MemGlobal:
		if reg, ok := lo.prom[m.Sym]; ok && m.Singleton && m.Off == 0 {
			lo.emit(linstr{op: parv.MOV, rd: vreg(reg), ra: lo.vr(in.A)})
			return nil
		}
		lo.emit(linstr{
			op: parv.STW, ra: vreg(parv.RegDP), rb: lo.vr(in.A),
			memSize: m.Size, singleton: m.Singleton,
			sym: m.Sym, relKind: parv.RelDataDisp, hasRel: true, imm: m.Off,
		})
	case ir.MemFrame:
		lo.emit(linstr{
			op: parv.STW, ra: vreg(parv.RegSP), rb: lo.vr(in.A),
			imm: lo.f.outArgs + m.Off, memSize: m.Size, singleton: m.Singleton,
		})
	case ir.MemPtr:
		lo.emit(linstr{
			op: parv.STW, ra: lo.vr(m.Base), rb: lo.vr(in.A),
			imm: m.Off, memSize: m.Size, singleton: m.Singleton,
		})
	default:
		return fmt.Errorf("codegen: %s: store with no address", lo.f.name)
	}
	return nil
}

func (lo *lowerer) lowerCall(in *ir.Instr) error {
	var used []vreg
	// Stack arguments first (they do not pin physical registers).
	for i := len(parv.ArgRegs); i < len(in.Args); i++ {
		lo.emit(linstr{
			op: parv.STW, ra: vreg(parv.RegSP), rb: lo.vr(in.Args[i]),
			imm: int32((i - len(parv.ArgRegs)) * 4), memSize: 4,
		})
	}
	for i := 0; i < len(in.Args) && i < len(parv.ArgRegs); i++ {
		dst := vreg(parv.ArgRegs[i])
		lo.emit(linstr{op: parv.MOV, rd: dst, ra: lo.vr(in.Args[i])})
		used = append(used, dst)
	}
	if in.IndirectCall {
		fn := lo.vr(in.A)
		used = append(used, fn)
		lo.emit(linstr{op: parv.BLR, rd: vreg(parv.RegRP), ra: fn, isCall: true, argsUsed: used})
	} else {
		lo.emit(linstr{
			op: parv.BL, rd: vreg(parv.RegRP), isCall: true, argsUsed: used,
			sym: in.Callee, relKind: parv.RelCall, hasRel: true,
		})
	}
	if in.Dst != 0 {
		lo.forgetConst(in.Dst)
		lo.emit(linstr{op: parv.MOV, rd: lo.vr(in.Dst), ra: vreg(parv.RegRet)})
	}
	return nil
}

// lowerTerm lowers the block terminator. Compare results consumed only by
// the branch fold into PA-RISC-style compare-and-branch instructions. The
// block's successor list is carved from succs; it returns the rest.
func (lo *lowerer) lowerTerm(b *ir.Block, succs []int) []int {
	lb := lo.cur
	switch b.Term.Kind {
	case ir.TermJump:
		lb.instrs = append(lb.instrs, linstr{op: parv.B, target: b.Term.True})
		lb.succs, succs = succs[:1:1], succs[1:]
		lb.succs[0] = b.Term.True

	case ir.TermBranch:
		folded := false
		cond := lo.regs[b.Term.Cond].vr
		// Fold `vN = cmp a, b; branch vN` into `cb.cond a, b`.
		if lo.regs[b.Term.Cond].uses == 1 {
			for i := len(lb.instrs) - 1; i >= 0; i-- {
				in := lb.instrs[i]
				if (in.op == parv.CMP || in.op == parv.CMPI) &&
					!in.rd.isPhys() && in.rd == cond {
					// Only fold when the compare is the defining instruction
					// and nothing after it redefines the operands.
					if defsBetween(lb.instrs[i+1:], in.ra, in.rb) {
						break
					}
					br := linstr{op: parv.CB, ra: in.ra, rb: in.rb, cond: in.cond, target: b.Term.True}
					if in.op == parv.CMPI {
						br.op = parv.CBI
						br.imm = in.imm
					}
					lb.instrs = append(lb.instrs[:i], append(lb.instrs[i+1:], br)...)
					folded = true
					break
				}
				// Stop scanning at any instruction that defines the cond vreg.
				if in.rd == cond {
					break
				}
			}
		}
		if !folded {
			lb.instrs = append(lb.instrs, linstr{
				op: parv.CBI, ra: lo.vr(b.Term.Cond), imm: 0, cond: parv.NE, target: b.Term.True,
			})
		}
		lb.instrs = append(lb.instrs, linstr{op: parv.B, target: b.Term.False})
		lb.succs, succs = succs[:2:2], succs[2:]
		lb.succs[0], lb.succs[1] = b.Term.True, b.Term.False

	case ir.TermReturn:
		if b.Term.HasVal {
			lb.instrs = append(lb.instrs, linstr{op: parv.MOV, rd: vreg(parv.RegRet), ra: lo.vr(b.Term.Val)})
		}
		lb.instrs = append(lb.instrs, linstr{op: parv.B, target: epilogueBlock})
	}
	return succs
}

// defsBetween reports whether any instruction defines ra or rb.
func defsBetween(ins []linstr, ra, rb vreg) bool {
	for i := range ins {
		d := ins[i].rd
		if d != 0 && (d == ra || d == rb) && ins[i].op != parv.STW {
			return true
		}
	}
	return false
}
