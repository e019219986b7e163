package irgen

import (
	"ipra/internal/ir"
	"ipra/internal/minic/ast"
	"ipra/internal/minic/sem"
	"ipra/internal/minic/token"
	"ipra/internal/minic/types"
)

// typeOf returns sem's decayed type for the expression.
func (fg *fgen) typeOf(e ast.Expr) types.Type {
	if t := e.ExprType(); t != nil {
		return t
	}
	return types.Int
}

// elemSize returns the pointee size for pointer arithmetic on type t.
func elemSize(t types.Type) int {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem.Size()
	}
	return 1
}

// genExprForEffect evaluates an expression for its side effects only.
func (fg *fgen) genExprForEffect(e ast.Expr) {
	switch e := e.(type) {
	case *ast.Assign:
		fg.genAssign(e)
		return
	case *ast.Call:
		fg.genCall(e, false)
		return
	case *ast.Postfix:
		fg.genIncDec(e.X, e.Op == token.PlusPlus, false)
		return
	case *ast.Unary:
		if e.Op == token.PlusPlus || e.Op == token.MinusMinus {
			fg.genIncDec(e.X, e.Op == token.PlusPlus, false)
			return
		}
	case *ast.Binary:
		// Comma-free language: evaluate operands for effects.
		if e.Op == token.AndAnd || e.Op == token.OrOr {
			fg.genExpr(e) // short-circuit still matters
			return
		}
	}
	fg.genExpr(e)
}

// genExpr evaluates e into a fresh or existing virtual register.
func (fg *fgen) genExpr(e ast.Expr) ir.Reg {
	switch e := e.(type) {
	case *ast.IntLit:
		return fg.constReg(e.Value)

	case *ast.StrLit:
		sym := fg.g.mod.StrSyms[e]
		r := fg.f.NewReg()
		fg.emit(ir.Instr{Op: ir.AddrGlobal, Dst: r, Callee: sym.QualName})
		return r

	case *ast.Ident:
		sym := fg.g.mod.Refs[e]
		if sym == nil {
			fg.errorf(e.P, "unresolved identifier %s", e.Name)
			return fg.constReg(0)
		}
		switch sym.Kind {
		case sem.FuncSym:
			r := fg.f.NewReg()
			fg.emit(ir.Instr{Op: ir.AddrGlobal, Dst: r, Callee: sym.QualName})
			return r
		default:
			if r, ok := fg.regOf[sym]; ok {
				return r
			}
			if _, isArr := sym.Type.(*types.Array); isArr {
				return fg.genAddr(e)
			}
			lv := fg.genLValue(e)
			return fg.loadLV(lv)
		}

	case *ast.Unary:
		return fg.genUnary(e)

	case *ast.Postfix:
		return fg.genIncDec(e.X, e.Op == token.PlusPlus, true)

	case *ast.Binary:
		return fg.genBinary(e)

	case *ast.Assign:
		return fg.genAssign(e)

	case *ast.Cond:
		res := fg.f.NewReg()
		thenB := fg.newBlock()
		elseB := fg.newBlock()
		join := fg.newBlock()
		fg.genCond(e.C, thenB.ID, elseB.ID)
		fg.cur = thenB
		tv := fg.genExpr(e.Then)
		fg.emit(ir.Instr{Op: ir.Copy, Dst: res, A: tv})
		fg.seal(ir.Term{Kind: ir.TermJump, True: join.ID}, elseB)
		ev := fg.genExpr(e.Else)
		fg.emit(ir.Instr{Op: ir.Copy, Dst: res, A: ev})
		fg.seal(ir.Term{Kind: ir.TermJump, True: join.ID}, join)
		return res

	case *ast.Call:
		return fg.genCall(e, true)

	case *ast.Index, *ast.Member:
		t := fg.typeOf(e)
		if _, isArr := underlyingArray(fg, e); isArr {
			return fg.genAddr(e)
		}
		_ = t
		lv := fg.genLValue(e)
		return fg.loadLV(lv)

	case *ast.SizeofType:
		// sem typed it; recompute the size the same way.
		return fg.constReg(sizeofValue(fg, e))
	}
	fg.errorf(e.Pos(), "unsupported expression")
	return fg.constReg(0)
}

// underlyingArray reports whether e designates an array object (which
// decays to its address rather than loading).
func underlyingArray(fg *fgen, e ast.Expr) (types.Type, bool) {
	switch e := e.(type) {
	case *ast.Member:
		f := fg.g.mod.FieldOf[e]
		if f == nil {
			return nil, false
		}
		_, ok := f.Type.(*types.Array)
		return f.Type, ok
	case *ast.Index:
		// Indexing an array of arrays is not in the language; indexing an
		// array of structs yields a struct lvalue, handled by Member.
		return nil, false
	}
	return nil, false
}

func sizeofValue(fg *fgen, e *ast.SizeofType) int64 {
	var t types.Type
	switch e.Type.Base {
	case ast.BaseInt:
		t = types.Int
	case ast.BaseChar:
		t = types.Char
	case ast.BaseVoid:
		t = types.Void
	case ast.BaseStruct:
		if s, ok := fg.g.mod.Structs[e.Type.StructName]; ok {
			t = s
		} else {
			t = types.Int
		}
	}
	for i := 0; i < e.Type.Ptr+e.Decl.Ptr; i++ {
		t = &types.Pointer{Elem: t}
	}
	return int64(t.Size())
}

func (fg *fgen) genUnary(e *ast.Unary) ir.Reg {
	switch e.Op {
	case token.Minus:
		v := fg.genExpr(e.X)
		r := fg.f.NewReg()
		fg.emit(ir.Instr{Op: ir.Neg, Dst: r, A: v})
		return r
	case token.Tilde:
		v := fg.genExpr(e.X)
		r := fg.f.NewReg()
		fg.emit(ir.Instr{Op: ir.Not, Dst: r, A: v})
		return r
	case token.Not:
		v := fg.genExpr(e.X)
		z := fg.constReg(0)
		r := fg.f.NewReg()
		fg.emit(ir.Instr{Op: ir.CmpEQ, Dst: r, A: v, B: z})
		return r
	case token.Star:
		t := fg.typeOf(e.X)
		if types.IsFuncPointer(t) {
			return fg.genExpr(e.X) // *fp re-decays to fp
		}
		lv := fg.genLValue(e)
		return fg.loadLV(lv)
	case token.Amp:
		return fg.genAddr(e.X)
	case token.PlusPlus, token.MinusMinus:
		return fg.genIncDec(e.X, e.Op == token.PlusPlus, false)
	}
	fg.errorf(e.P, "unsupported unary operator %s", e.Op)
	return fg.constReg(0)
}

// genIncDec handles ++/--; postfix selects whether the old value is the
// result.
func (fg *fgen) genIncDec(x ast.Expr, inc, postfix bool) ir.Reg {
	t := fg.typeOf(x)
	delta := int64(1)
	if types.IsPointer(t) {
		delta = int64(elemSize(t))
	}
	lv := fg.genLValue(x)
	old := fg.loadLV(lv)
	d := fg.constReg(delta)
	nw := fg.f.NewReg()
	op := ir.Add
	if !inc {
		op = ir.Sub
	}
	fg.emit(ir.Instr{Op: op, Dst: nw, A: old, B: d})
	fg.storeLV(lv, nw)
	if postfix {
		return old
	}
	return nw
}

func (fg *fgen) genBinary(e *ast.Binary) ir.Reg {
	switch e.Op {
	case token.AndAnd, token.OrOr:
		// Materialize the boolean via control flow.
		res := fg.f.NewReg()
		trueB := fg.newBlock()
		falseB := fg.newBlock()
		join := fg.newBlock()
		fg.genCond(e, trueB.ID, falseB.ID)
		fg.cur = trueB
		one := fg.constReg(1)
		fg.emit(ir.Instr{Op: ir.Copy, Dst: res, A: one})
		fg.seal(ir.Term{Kind: ir.TermJump, True: join.ID}, falseB)
		zero := fg.constReg(0)
		fg.emit(ir.Instr{Op: ir.Copy, Dst: res, A: zero})
		fg.seal(ir.Term{Kind: ir.TermJump, True: join.ID}, join)
		return res
	}

	tx := fg.typeOf(e.X)
	ty := fg.typeOf(e.Y)
	a := fg.genExpr(e.X)
	b := fg.genExpr(e.Y)

	switch e.Op {
	case token.Plus:
		if types.IsPointer(tx) && types.IsInteger(ty) {
			return fg.ptrAdd(a, b, elemSize(tx), false)
		}
		if types.IsInteger(tx) && types.IsPointer(ty) {
			return fg.ptrAdd(b, a, elemSize(ty), false)
		}
	case token.Minus:
		if types.IsPointer(tx) && types.IsInteger(ty) {
			return fg.ptrAdd(a, b, elemSize(tx), true)
		}
		if types.IsPointer(tx) && types.IsPointer(ty) {
			diff := fg.f.NewReg()
			fg.emit(ir.Instr{Op: ir.Sub, Dst: diff, A: a, B: b})
			return fg.divByConst(diff, elemSize(tx))
		}
	}

	var op ir.Op
	switch e.Op {
	case token.Plus:
		op = ir.Add
	case token.Minus:
		op = ir.Sub
	case token.Star:
		op = ir.Mul
	case token.Slash:
		op = ir.Div
	case token.Percent:
		op = ir.Rem
	case token.Amp:
		op = ir.And
	case token.Pipe:
		op = ir.Or
	case token.Caret:
		op = ir.Xor
	case token.Shl:
		op = ir.Shl
	case token.Shr:
		op = ir.Shr
	case token.Eq:
		op = ir.CmpEQ
	case token.Ne:
		op = ir.CmpNE
	case token.Lt:
		op = ir.CmpLT
	case token.Le:
		op = ir.CmpLE
	case token.Gt:
		op = ir.CmpGT
	case token.Ge:
		op = ir.CmpGE
	default:
		fg.errorf(e.P, "unsupported binary operator %s", e.Op)
		return fg.constReg(0)
	}
	r := fg.f.NewReg()
	fg.emit(ir.Instr{Op: op, Dst: r, A: a, B: b})
	return r
}

// ptrAdd computes ptr ± idx*size.
func (fg *fgen) ptrAdd(ptr, idx ir.Reg, size int, sub bool) ir.Reg {
	scaled := fg.scale(idx, size)
	r := fg.f.NewReg()
	op := ir.Add
	if sub {
		op = ir.Sub
	}
	fg.emit(ir.Instr{Op: op, Dst: r, A: ptr, B: scaled})
	return r
}

// scale multiplies idx by a constant element size, preferring shifts.
func (fg *fgen) scale(idx ir.Reg, size int) ir.Reg {
	if size == 1 {
		return idx
	}
	r := fg.f.NewReg()
	if sh := log2(size); sh >= 0 {
		s := fg.constReg(int64(sh))
		fg.emit(ir.Instr{Op: ir.Shl, Dst: r, A: idx, B: s})
		return r
	}
	s := fg.constReg(int64(size))
	fg.emit(ir.Instr{Op: ir.Mul, Dst: r, A: idx, B: s})
	return r
}

func (fg *fgen) divByConst(v ir.Reg, size int) ir.Reg {
	if size == 1 {
		return v
	}
	r := fg.f.NewReg()
	if sh := log2(size); sh >= 0 {
		s := fg.constReg(int64(sh))
		fg.emit(ir.Instr{Op: ir.Shr, Dst: r, A: v, B: s})
		return r
	}
	s := fg.constReg(int64(size))
	fg.emit(ir.Instr{Op: ir.Div, Dst: r, A: v, B: s})
	return r
}

func log2(n int) int {
	for i := 0; i < 31; i++ {
		if 1<<uint(i) == n {
			return i
		}
	}
	return -1
}

func (fg *fgen) genAssign(e *ast.Assign) ir.Reg {
	lt := fg.typeOf(e.LHS)
	if _, isStruct := lt.(*types.Struct); isStruct && e.Op == token.Assign {
		return fg.genStructAssign(e)
	}
	if e.Op == token.Assign {
		v := fg.genExpr(e.RHS)
		lv := fg.genLValue(e.LHS)
		fg.storeLV(lv, v)
		return v
	}
	// Compound assignment: evaluate the lvalue once.
	lv := fg.genLValue(e.LHS)
	old := fg.loadLV(lv)
	rhs := fg.genExpr(e.RHS)
	var op ir.Op
	scaleSz := 1
	switch e.Op {
	case token.PlusEq:
		op = ir.Add
		if types.IsPointer(lt) {
			scaleSz = elemSize(lt)
		}
	case token.MinusEq:
		op = ir.Sub
		if types.IsPointer(lt) {
			scaleSz = elemSize(lt)
		}
	case token.StarEq:
		op = ir.Mul
	case token.SlashEq:
		op = ir.Div
	case token.PercentEq:
		op = ir.Rem
	case token.AmpEq:
		op = ir.And
	case token.PipeEq:
		op = ir.Or
	case token.CaretEq:
		op = ir.Xor
	case token.ShlEq:
		op = ir.Shl
	case token.ShrEq:
		op = ir.Shr
	default:
		fg.errorf(e.P, "unsupported compound assignment %s", e.Op)
		return old
	}
	if scaleSz != 1 {
		rhs = fg.scale(rhs, scaleSz)
	}
	nw := fg.f.NewReg()
	fg.emit(ir.Instr{Op: op, Dst: nw, A: old, B: rhs})
	fg.storeLV(lv, nw)
	return nw
}

// genStructAssign copies RHS struct into LHS word by word.
func (fg *fgen) genStructAssign(e *ast.Assign) ir.Reg {
	st := fg.typeOf(e.LHS).(*types.Struct)
	src := fg.genAddr(e.RHS)
	dst := fg.genAddr(e.LHS)
	for off := 0; off < st.Size(); off += 4 {
		tmp := fg.f.NewReg()
		fg.emit(ir.Instr{Op: ir.Load, Dst: tmp, Mem: ir.MemRef{Kind: ir.MemPtr, Base: src, Off: int32(off), Size: 4}})
		fg.emit(ir.Instr{Op: ir.Store, A: tmp, Mem: ir.MemRef{Kind: ir.MemPtr, Base: dst, Off: int32(off), Size: 4}})
	}
	return dst
}

func (fg *fgen) genCall(e *ast.Call, wantValue bool) ir.Reg {
	var args []ir.Reg
	if len(e.Args) > 0 {
		args = make([]ir.Reg, len(e.Args))
		for i, a := range e.Args {
			args[i] = fg.genExpr(a)
		}
	}

	in := ir.Instr{Op: ir.Call, Args: args}
	resultVoid := true
	if t := e.ExprType(); t != nil && t != types.Void {
		resultVoid = false
	}

	direct := false
	if id, ok := e.Fun.(*ast.Ident); ok {
		if sym := fg.g.mod.Refs[id]; sym != nil && sym.Kind == sem.FuncSym {
			in.Callee = sym.QualName
			direct = true
		}
	}
	if !direct {
		// Indirect call: the callee address comes from an expression.
		fun := e.Fun
		if u, ok := fun.(*ast.Unary); ok && u.Op == token.Star {
			fun = u.X // (*fp)(...) is the same as fp(...)
		}
		in.A = fg.genExpr(fun)
		in.IndirectCall = true
	}

	if wantValue && !resultVoid {
		in.Dst = fg.f.NewReg()
	}
	in.ResultVoid = resultVoid
	fg.emit(in)
	if in.Dst == 0 {
		return 0
	}
	return in.Dst
}

// ----------------------------------------------------------------------------
// Lvalues and addresses

func (fg *fgen) loadLV(lv lvalue) ir.Reg {
	if lv.kind == lvReg {
		return lv.reg
	}
	r := fg.f.NewReg()
	fg.emit(ir.Instr{Op: ir.Load, Dst: r, Mem: lv.mem})
	return r
}

func (fg *fgen) storeLV(lv lvalue, v ir.Reg) {
	if lv.kind == lvReg {
		fg.emit(ir.Instr{Op: ir.Copy, Dst: lv.reg, A: v})
		return
	}
	fg.emit(ir.Instr{Op: ir.Store, A: v, Mem: lv.mem})
}

func (fg *fgen) genLValue(e ast.Expr) lvalue {
	switch e := e.(type) {
	case *ast.Ident:
		sym := fg.g.mod.Refs[e]
		if sym == nil {
			fg.errorf(e.P, "unresolved identifier %s", e.Name)
			return lvalue{kind: lvReg, reg: fg.constReg(0)}
		}
		if r, ok := fg.regOf[sym]; ok {
			return lvalue{kind: lvReg, reg: r}
		}
		if off, ok := fg.frameOf[sym]; ok {
			return lvalue{kind: lvMem, mem: fg.frameRef(sym.Type, off, true)}
		}
		// Global variable.
		return lvalue{kind: lvMem, mem: ir.MemRef{
			Kind: ir.MemGlobal, Sym: sym.QualName,
			Size:      accessSize(sym.Type),
			Singleton: types.IsScalar(sym.Type),
		}}

	case *ast.Unary:
		if e.Op == token.Star {
			t := fg.typeOf(e.X)
			ptr := fg.genExpr(e.X)
			sz := uint8(4)
			if p, ok := t.(*types.Pointer); ok {
				sz = accessSize(p.Elem)
			}
			return lvalue{kind: lvMem, mem: ir.MemRef{Kind: ir.MemPtr, Base: ptr, Off: 0, Size: sz}}
		}

	case *ast.Index:
		xt := fg.typeOf(e.X) // decayed: pointer
		esz := elemSize(xt)
		base := fg.genExpr(e.X)
		// Constant index folds into the displacement.
		if lit, ok := e.Idx.(*ast.IntLit); ok {
			return lvalue{kind: lvMem, mem: ir.MemRef{
				Kind: ir.MemPtr, Base: base, Off: int32(lit.Value) * int32(esz),
				Size: uint8(min(esz, 4)),
			}}
		}
		idx := fg.genExpr(e.Idx)
		addr := fg.ptrAdd(base, idx, esz, false)
		return lvalue{kind: lvMem, mem: ir.MemRef{Kind: ir.MemPtr, Base: addr, Size: uint8(min(esz, 4))}}

	case *ast.Member:
		f := fg.g.mod.FieldOf[e]
		if f == nil {
			fg.errorf(e.P, "unresolved field %s", e.Name)
			return lvalue{kind: lvReg, reg: fg.constReg(0)}
		}
		sz := accessSize(f.Type)
		if e.Arrow {
			ptr := fg.genExpr(e.X)
			return lvalue{kind: lvMem, mem: ir.MemRef{Kind: ir.MemPtr, Base: ptr, Off: int32(f.Offset), Size: sz}}
		}
		base := fg.genLValue(e.X)
		if base.kind != lvMem {
			fg.errorf(e.P, "invalid struct access")
			return lvalue{kind: lvReg, reg: fg.constReg(0)}
		}
		m := base.mem
		m.Off += int32(f.Offset)
		m.Size = sz
		m.Singleton = false
		return lvalue{kind: lvMem, mem: m}
	}
	fg.errorf(e.Pos(), "expression is not an lvalue")
	return lvalue{kind: lvReg, reg: fg.constReg(0)}
}

// genAddr computes the address of an lvalue (or function) into a register.
func (fg *fgen) genAddr(e ast.Expr) ir.Reg {
	switch e := e.(type) {
	case *ast.Ident:
		sym := fg.g.mod.Refs[e]
		if sym == nil {
			fg.errorf(e.P, "unresolved identifier %s", e.Name)
			return fg.constReg(0)
		}
		if sym.Kind == sem.FuncSym {
			r := fg.f.NewReg()
			fg.emit(ir.Instr{Op: ir.AddrGlobal, Dst: r, Callee: sym.QualName})
			return r
		}
		if off, ok := fg.frameOf[sym]; ok {
			r := fg.f.NewReg()
			fg.emit(ir.Instr{Op: ir.AddrFrame, Dst: r, Imm: int64(off)})
			return r
		}
		if _, ok := fg.regOf[sym]; ok {
			// sem marks address-taken locals before irgen runs, so this
			// cannot happen; guard anyway.
			fg.errorf(e.P, "cannot take address of register variable %s", e.Name)
			return fg.constReg(0)
		}
		r := fg.f.NewReg()
		fg.emit(ir.Instr{Op: ir.AddrGlobal, Dst: r, Callee: sym.QualName})
		return r

	case *ast.StrLit:
		sym := fg.g.mod.StrSyms[e]
		r := fg.f.NewReg()
		fg.emit(ir.Instr{Op: ir.AddrGlobal, Dst: r, Callee: sym.QualName})
		return r
	}

	lv := fg.genLValue(e)
	if lv.kind != lvMem {
		fg.errorf(e.Pos(), "cannot take address")
		return fg.constReg(0)
	}
	return fg.addrOfMem(lv.mem)
}

func (fg *fgen) addrOfMem(m ir.MemRef) ir.Reg {
	r := fg.f.NewReg()
	switch m.Kind {
	case ir.MemGlobal:
		fg.emit(ir.Instr{Op: ir.AddrGlobal, Dst: r, Callee: m.Sym, Imm: int64(m.Off)})
	case ir.MemFrame:
		fg.emit(ir.Instr{Op: ir.AddrFrame, Dst: r, Imm: int64(m.Off)})
	case ir.MemPtr:
		if m.Off == 0 {
			return m.Base
		}
		off := fg.constReg(int64(m.Off))
		fg.emit(ir.Instr{Op: ir.Add, Dst: r, A: m.Base, B: off})
	}
	return r
}
