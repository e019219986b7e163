// Package opt implements the "level 2" (global, intraprocedural)
// optimizations: constant folding and propagation, local copy propagation
// and common subexpression elimination, control-flow simplification, dead
// code elimination, and intraprocedural global variable promotion (the
// baseline behaviour the paper's interprocedural promotion improves on).
// A build runs the scalar cleanups (Level1) in the compiler first phase and
// the rest (Promote) in the second.
package opt

import (
	"ipra/internal/ir"
)

// Level2 runs the full baseline pass pipeline over a function: Level1,
// then Promote. skipGlobals names globals that must not be touched by
// intraprocedural promotion (because the program analyzer promoted them
// interprocedurally).
//
// Cleaning up first means promotion sees only the code that survives it,
// so a global referenced only in dead code gets no entry, call or exit
// transfers. It also lets a build split the pipeline across its phases:
// Level1 once in phase 1, Promote in phase 2.
func Level2(f *ir.Func, eligible map[string]bool, skipGlobals map[string]bool) {
	Level1(f)
	Promote(f, eligible, skipGlobals)
}

// Promote is the second half of Level2, for a function Level1 already ran
// on: intraprocedural promotion of the eligible globals (PromoteGlobals),
// then at most three rounds of scalar cleanup.
func Promote(f *ir.Func, eligible map[string]bool, skipGlobals map[string]bool) {
	PromoteGlobals(f, eligible, skipGlobals)
	var lv ir.Liveness
	st := newLVState()
	for i := 0; i < 3; i++ {
		st.run(f)
		changed := SimplifyCFG(f)
		changed = deadCodeElim(f, &lv) || changed
		if !changed {
			break
		}
	}
}

// Level1 runs only the scalar cleanups (no global promotion). A build runs
// it once per module, in phase 1: its output is what the summary records
// describe and what phase 2 starts from.
func Level1(f *ir.Func) {
	var lv ir.Liveness
	st := newLVState()
	for i := 0; i < 2; i++ {
		st.run(f)
		SimplifyCFG(f)
		deadCodeElim(f, &lv)
	}
}

// ----------------------------------------------------------------------------
// Local (basic-block) optimization: constant/copy propagation, folding and
// common subexpression elimination via value numbering.

// LocalOpt optimizes each basic block independently.
func LocalOpt(f *ir.Func) {
	st := newLVState()
	st.run(f)
}

// newLVState returns an empty state. It inlines, so a state that serves
// one function's rounds starts its tables on the caller's stack, and only
// a table that outgrows that room moves to the heap.
func newLVState() lvState {
	return lvState{
		constOf: make(map[ir.Reg]int64),
		copyOf:  make(map[ir.Reg]copyFact),
		exprVN:  make(map[vnKey]exprFact),
		loadVN:  make(map[memKey]loadFact),
	}
}

// run optimizes each basic block of f independently. One state serves
// every round over a function: its tables are cleared between blocks,
// keeping the room they grew, and its generations are replaced when
// f.NextReg has grown. A generation only tells a fact recorded in the
// current block from a stale one, so the counts left from earlier blocks
// and rounds need no reset.
func (st *lvState) run(f *ir.Func) {
	if n := int(f.NextReg) + 1; len(st.gen) < n {
		st.gen = make([]uint32, n)
	}
	for _, b := range f.Blocks {
		clear(st.constOf)
		clear(st.copyOf)
		clear(st.exprVN)
		clear(st.loadVN)
		optBlock(f, b, st)
	}
}

// lvState is what local optimization knows at one point of a block.
//
// Facts that mention registers are stamped with their generations: gen[r]
// counts the redefinitions of r, and a fact holds only while every
// register it mentions is still at the generation it was recorded at. So
// kill bumps one counter instead of scanning every table for facts that
// mention the register, and a lookup ignores a stale fact exactly where a
// scan would have deleted it.
type lvState struct {
	constOf map[ir.Reg]int64 // register holds a known constant
	copyOf  map[ir.Reg]copyFact
	// exprVN maps a value-numbering key to the register holding it.
	exprVN map[vnKey]exprFact
	// loadVN maps memory locations to the register holding the last
	// loaded/stored value; invalidated conservatively.
	loadVN map[memKey]loadFact
	gen    []uint32
}

// copyFact says the keyed register holds a copy of src.
type copyFact struct {
	src    ir.Reg
	srcGen uint32
}

// exprFact says reg holds the value of the keyed expression.
type exprFact struct {
	reg                ir.Reg
	regGen, aGen, bGen uint32
}

// loadFact says reg holds the value at the keyed memory location.
type loadFact struct {
	reg             ir.Reg
	regGen, baseGen uint32
}

type vnKey struct {
	op   ir.Op
	a, b ir.Reg
	imm  int64
	sym  string
}

type memKey struct {
	kind ir.MemKind
	sym  string
	base ir.Reg
	off  int32
	size uint8
}

// kill invalidates everything known about register r (it is being
// redefined).
func (st *lvState) kill(r ir.Reg) {
	delete(st.constOf, r)
	delete(st.copyOf, r)
	st.gen[r]++
}

// resolve follows copy chains to the oldest equivalent register still
// holding the value.
func (st *lvState) resolve(r ir.Reg) ir.Reg {
	for {
		c, ok := st.copyOf[r]
		if !ok || c.srcGen != st.gen[c.src] {
			return r
		}
		r = c.src
	}
}

func (st *lvState) setCopy(dst, src ir.Reg) {
	st.copyOf[dst] = copyFact{src: src, srcGen: st.gen[src]}
}

func (st *lvState) expr(k vnKey) (ir.Reg, bool) {
	e, ok := st.exprVN[k]
	return e.reg, ok && e.regGen == st.gen[e.reg] && e.aGen == st.gen[k.a] && e.bGen == st.gen[k.b]
}

func (st *lvState) setExpr(k vnKey, r ir.Reg) {
	st.exprVN[k] = exprFact{reg: r, regGen: st.gen[r], aGen: st.gen[k.a], bGen: st.gen[k.b]}
}

func (st *lvState) load(k memKey) (ir.Reg, bool) {
	l, ok := st.loadVN[k]
	return l.reg, ok && l.regGen == st.gen[l.reg] && l.baseGen == st.gen[k.base]
}

func (st *lvState) setLoad(k memKey, r ir.Reg) {
	st.loadVN[k] = loadFact{reg: r, regGen: st.gen[r], baseGen: st.gen[k.base]}
}

func optBlock(f *ir.Func, b *ir.Block, st *lvState) {
	for i := range b.Instrs {
		in := &b.Instrs[i]

		// Rewrite operands through copy chains.
		switch {
		case in.Op == ir.Store:
			in.A = st.resolve(in.A)
			if in.Mem.Kind == ir.MemPtr {
				in.Mem.Base = st.resolve(in.Mem.Base)
			}
		case in.Op == ir.Load:
			if in.Mem.Kind == ir.MemPtr {
				in.Mem.Base = st.resolve(in.Mem.Base)
			}
		case in.Op == ir.Call:
			for j := range in.Args {
				in.Args[j] = st.resolve(in.Args[j])
			}
			if in.IndirectCall {
				in.A = st.resolve(in.A)
			}
		case in.Op == ir.Copy || in.Op == ir.Neg || in.Op == ir.Not:
			in.A = st.resolve(in.A)
		default:
			if in.Op.IsBinary() {
				in.A = st.resolve(in.A)
				in.B = st.resolve(in.B)
			}
		}

		switch in.Op {
		case ir.Const:
			st.kill(in.Dst)
			st.constOf[in.Dst] = in.Imm

		case ir.Copy:
			src := in.A
			if src == in.Dst {
				// A self-copy leaves the register's value, and so every
				// fact about it, as it was.
				break
			}
			st.kill(in.Dst)
			if v, ok := st.constOf[src]; ok {
				st.constOf[in.Dst] = v
			}
			st.setCopy(in.Dst, src)

		case ir.Neg, ir.Not:
			if v, ok := st.constOf[in.A]; ok {
				nv := -v
				if in.Op == ir.Not {
					nv = int64(^int32(v))
				}
				*in = ir.Instr{Op: ir.Const, Dst: in.Dst, Imm: int64(int32(nv))}
				st.kill(in.Dst)
				st.constOf[in.Dst] = in.Imm
				continue
			}
			st.kill(in.Dst)

		case ir.Load:
			key := memKey{kind: in.Mem.Kind, sym: in.Mem.Sym, base: in.Mem.Base, off: in.Mem.Off, size: in.Mem.Size}
			if prev, ok := st.load(key); ok {
				dst := in.Dst
				*in = ir.Instr{Op: ir.Copy, Dst: dst, A: prev}
				st.kill(dst)
				st.setCopy(dst, prev)
				if v, okc := st.constOf[prev]; okc {
					st.constOf[dst] = v
				}
				continue
			}
			st.kill(in.Dst)
			st.setLoad(key, in.Dst)

		case ir.Store:
			// A store invalidates overlapping memory facts. With worst-case
			// aliasing, a pointer store kills everything; a direct store
			// kills only same-location entries (different globals and frame
			// slots cannot alias each other or pointer targets of distinct
			// names... pointer targets CAN alias them, so those die too).
			if in.Mem.Kind == ir.MemPtr {
				clear(st.loadVN)
			} else {
				for k := range st.loadVN {
					if overlaps(k, in.Mem) {
						delete(st.loadVN, k)
					}
				}
			}
			key := memKey{kind: in.Mem.Kind, sym: in.Mem.Sym, base: in.Mem.Base, off: in.Mem.Off, size: in.Mem.Size}
			st.setLoad(key, in.A)

		case ir.Call:
			// A call may modify any global or escaped frame slot.
			clear(st.loadVN)
			// Pinned (web) registers are shared with callees: the callee
			// may read and write the promoted global, so every fact about
			// a pinned register dies at a call.
			for r := range f.Pinned {
				st.kill(r)
			}
			if in.Dst != 0 {
				st.kill(in.Dst)
			}

		case ir.AddrGlobal, ir.AddrFrame:
			key := vnKey{op: in.Op, imm: in.Imm, sym: in.Callee}
			if prev, ok := st.expr(key); ok {
				dst := in.Dst
				*in = ir.Instr{Op: ir.Copy, Dst: dst, A: prev}
				st.kill(dst)
				st.setCopy(dst, prev)
				continue
			}
			st.kill(in.Dst)
			st.setExpr(key, in.Dst)

		default:
			if !in.Op.IsBinary() {
				continue
			}
			va, oka := st.constOf[in.A]
			vb, okb := st.constOf[in.B]
			if oka && okb {
				if v, ok := foldBinary(in.Op, va, vb); ok {
					dst := in.Dst
					*in = ir.Instr{Op: ir.Const, Dst: dst, Imm: v}
					st.kill(dst)
					st.constOf[dst] = v
					continue
				}
			}
			// Algebraic simplifications with one constant.
			if r, ok := simplifyBinary(in, va, oka, vb, okb); ok {
				dst := in.Dst
				*in = ir.Instr{Op: ir.Copy, Dst: dst, A: r}
				st.kill(dst)
				st.setCopy(dst, r)
				continue
			}
			// Value numbering (normalize commutative operand order).
			a, bb := in.A, in.B
			if in.Op.IsCommutative() && a > bb {
				a, bb = bb, a
			}
			key := vnKey{op: in.Op, a: a, b: bb}
			if prev, ok := st.expr(key); ok && prev != in.Dst {
				dst := in.Dst
				*in = ir.Instr{Op: ir.Copy, Dst: dst, A: prev}
				st.kill(dst)
				st.setCopy(dst, prev)
				continue
			}
			st.kill(in.Dst)
			st.setExpr(key, in.Dst)
		}
	}

	// Propagate into the terminator.
	if b.Term.Kind == ir.TermBranch {
		b.Term.Cond = st.resolve(b.Term.Cond)
		if v, ok := st.constOf[b.Term.Cond]; ok {
			t := b.Term.True
			if v == 0 {
				t = b.Term.False
			}
			b.Term = ir.Term{Kind: ir.TermJump, True: t}
		}
	}
	if b.Term.Kind == ir.TermReturn && b.Term.HasVal {
		b.Term.Val = st.resolve(b.Term.Val)
	}
}

// overlaps reports whether memory fact k may alias a direct store to m.
func overlaps(k memKey, m ir.MemRef) bool {
	if k.kind == ir.MemPtr {
		return true // a pointer-based fact may alias any direct store
	}
	if k.kind != m.Kind {
		return false // distinct named spaces (global vs frame) are disjoint
	}
	if k.kind == ir.MemGlobal && k.sym != m.Sym {
		return false
	}
	aLo, aHi := int64(k.off), int64(k.off)+int64(k.size)
	bLo, bHi := int64(m.Off), int64(m.Off)+int64(m.Size)
	return aLo < bHi && bLo < aHi
}

func foldBinary(op ir.Op, a, b int64) (int64, bool) {
	x, y := int32(a), int32(b)
	var r int32
	switch op {
	case ir.Add:
		r = x + y
	case ir.Sub:
		r = x - y
	case ir.Mul:
		r = x * y
	case ir.Div:
		if y == 0 {
			return 0, false
		}
		r = x / y
	case ir.Rem:
		if y == 0 {
			return 0, false
		}
		r = x % y
	case ir.And:
		r = x & y
	case ir.Or:
		r = x | y
	case ir.Xor:
		r = x ^ y
	case ir.Shl:
		r = x << uint(y&31)
	case ir.Shr:
		r = x >> uint(y&31)
	case ir.CmpEQ:
		r = b2i(x == y)
	case ir.CmpNE:
		r = b2i(x != y)
	case ir.CmpLT:
		r = b2i(x < y)
	case ir.CmpLE:
		r = b2i(x <= y)
	case ir.CmpGT:
		r = b2i(x > y)
	case ir.CmpGE:
		r = b2i(x >= y)
	default:
		return 0, false
	}
	return int64(r), true
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// simplifyBinary returns a register equivalent to the instruction when an
// identity applies (x+0, x*1, x&x, ...).
func simplifyBinary(in *ir.Instr, va int64, oka bool, vb int64, okb bool) (ir.Reg, bool) {
	switch in.Op {
	case ir.Add, ir.Or, ir.Xor, ir.Shl, ir.Shr:
		if okb && vb == 0 {
			return in.A, true
		}
		if oka && va == 0 && in.Op == ir.Add {
			return in.B, true
		}
		if oka && va == 0 && in.Op == ir.Or {
			return in.B, true
		}
	case ir.Sub:
		if okb && vb == 0 {
			return in.A, true
		}
	case ir.Mul:
		if okb && vb == 1 {
			return in.A, true
		}
		if oka && va == 1 {
			return in.B, true
		}
	case ir.Div:
		if okb && vb == 1 {
			return in.A, true
		}
	case ir.And:
		if in.A == in.B {
			return in.A, true
		}
	}
	if in.Op == ir.Or && in.A == in.B {
		return in.A, true
	}
	return 0, false
}
