package sem

import (
	"ipra/internal/minic/ast"
	"ipra/internal/minic/token"
	"ipra/internal/minic/types"
)

// checkExpr types an expression and records the (decayed) type. It returns
// nil after reporting an error so callers can keep checking.
func (c *checker) checkExpr(e ast.Expr) types.Type {
	t := c.typeOf(e)
	if t != nil {
		e.SetExprType(t)
	}
	return t
}

// decay converts array values to pointers to their first element.
func decay(t types.Type) types.Type {
	if arr, ok := t.(*types.Array); ok {
		return &types.Pointer{Elem: arr.Elem}
	}
	return t
}

func (c *checker) typeOf(e ast.Expr) types.Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return types.Int

	case *ast.StrLit:
		// Intern the literal's storage; irgen resolves the expression to the
		// address of this anonymous global.
		c.strRefs(e, c.internString(e))
		return &types.Pointer{Elem: types.Char}

	case *ast.Ident:
		sym := c.lookup(e.Name)
		if sym == nil {
			c.errorf(e.P, "undefined: %s", e.Name)
			return nil
		}
		c.mod.Refs[e] = sym
		if sym.Kind == FuncSym {
			// A function name in a value context decays to a function
			// pointer and marks the function address-taken (a potential
			// indirect call target, §7.3).
			sym.AddrTaken = true
			return &types.Pointer{Elem: sym.Type}
		}
		return decay(sym.Type)

	case *ast.Unary:
		return c.typeOfUnary(e)

	case *ast.Postfix:
		t := c.checkExpr(e.X)
		if t == nil {
			return nil
		}
		if !c.isLvalue(e.X) {
			c.errorf(e.P, "%s requires an lvalue", e.Op)
		}
		if !types.IsInteger(t) && !types.IsPointer(t) {
			c.errorf(e.P, "%s requires scalar operand, found %s", e.Op, t)
			return nil
		}
		return t

	case *ast.Binary:
		return c.typeOfBinary(e)

	case *ast.Assign:
		return c.typeOfAssign(e)

	case *ast.Cond:
		c.wantScalarCond(e.C)
		t1 := c.checkExpr(e.Then)
		t2 := c.checkExpr(e.Else)
		if t1 == nil || t2 == nil {
			return t1
		}
		if types.IsInteger(t1) && types.IsInteger(t2) {
			return types.Int
		}
		if types.Identical(t1, t2) {
			return t1
		}
		if types.IsPointer(t1) && isNullConst(e.Else, t1) {
			return t1
		}
		if types.IsPointer(t2) && isNullConst(e.Then, t2) {
			return t2
		}
		c.errorf(e.P, "mismatched branches of ?: (%s vs %s)", t1, t2)
		return t1

	case *ast.Call:
		return c.typeOfCall(e)

	case *ast.Index:
		t := c.checkExpr(e.X)
		it := c.checkExpr(e.Idx)
		if it != nil && !types.IsInteger(it) {
			c.errorf(e.Idx.Pos(), "array index must be integer, found %s", it)
		}
		if t == nil {
			return nil
		}
		p, ok := t.(*types.Pointer)
		if !ok {
			c.errorf(e.P, "cannot index %s", t)
			return nil
		}
		return decay(p.Elem)

	case *ast.Member:
		t := c.checkExpr(e.X)
		if t == nil {
			return nil
		}
		var st *types.Struct
		if e.Arrow {
			p, ok := t.(*types.Pointer)
			if !ok {
				c.errorf(e.P, "-> requires a struct pointer, found %s", t)
				return nil
			}
			st, ok = p.Elem.(*types.Struct)
			if !ok {
				c.errorf(e.P, "-> requires a struct pointer, found %s", t)
				return nil
			}
		} else {
			var ok bool
			st, ok = t.(*types.Struct)
			if !ok {
				c.errorf(e.P, ". requires a struct, found %s", t)
				return nil
			}
		}
		f := st.Field(e.Name)
		if f == nil {
			c.errorf(e.P, "struct %s has no field %s", st.Name, e.Name)
			return nil
		}
		c.mod.FieldOf[e] = f
		return decay(f.Type)

	case *ast.SizeofType:
		return types.Int
	}
	return nil
}

func (c *checker) strRefs(e *ast.StrLit, sym *Symbol) {
	if c.mod.StrSyms == nil {
		c.mod.StrSyms = make(map[*ast.StrLit]*Symbol)
	}
	c.mod.StrSyms[e] = sym
}

func (c *checker) typeOfUnary(e *ast.Unary) types.Type {
	switch e.Op {
	case token.Minus, token.Tilde:
		t := c.checkExpr(e.X)
		if t == nil {
			return nil
		}
		if !types.IsInteger(t) {
			c.errorf(e.P, "%s requires an integer operand, found %s", e.Op, t)
			return nil
		}
		return types.Int

	case token.Not:
		t := c.checkExpr(e.X)
		if t != nil && !types.IsInteger(t) && !types.IsPointer(t) {
			c.errorf(e.P, "! requires a scalar operand, found %s", t)
		}
		return types.Int

	case token.Star:
		t := c.checkExpr(e.X)
		if t == nil {
			return nil
		}
		p, ok := t.(*types.Pointer)
		if !ok {
			c.errorf(e.P, "cannot dereference %s", t)
			return nil
		}
		if f, isF := p.Elem.(*types.Func); isF {
			// *fp yields the function designator; it re-decays to the
			// pointer so (*fp)(args) works like fp(args).
			return &types.Pointer{Elem: f}
		}
		return decay(p.Elem)

	case token.Amp:
		// &func and &global need address-taken marking.
		t := c.checkExpr(e.X)
		if t == nil {
			return nil
		}
		if id, ok := e.X.(*ast.Ident); ok {
			if sym := c.mod.Refs[id]; sym != nil {
				sym.AddrTaken = true
				if sym.Kind == FuncSym {
					return &types.Pointer{Elem: sym.Type}
				}
				// Use the symbol's true type: &arr is a pointer to the
				// array's element in MiniC (no pointer-to-array type).
				if arr, ok := sym.Type.(*types.Array); ok {
					return &types.Pointer{Elem: arr.Elem}
				}
				return &types.Pointer{Elem: sym.Type}
			}
			return nil
		}
		if !c.isLvalue(e.X) {
			c.errorf(e.P, "& requires an lvalue")
			return nil
		}
		c.markBaseAddrTaken(e.X)
		return &types.Pointer{Elem: t}

	case token.PlusPlus, token.MinusMinus:
		t := c.checkExpr(e.X)
		if t == nil {
			return nil
		}
		if !c.isLvalue(e.X) {
			c.errorf(e.P, "%s requires an lvalue", e.Op)
		}
		if !types.IsInteger(t) && !types.IsPointer(t) {
			c.errorf(e.P, "%s requires a scalar operand, found %s", e.Op, t)
			return nil
		}
		return t
	}
	return nil
}

// markBaseAddrTaken flags the root symbol of an lvalue expression whose
// address escapes via '&'. Array indexing and pointer dereference already
// imply address-taken storage for the pointee, but taking the address of a
// struct member or array element of a named variable aliases that variable.
func (c *checker) markBaseAddrTaken(e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		if sym := c.mod.Refs[e]; sym != nil {
			sym.AddrTaken = true
		}
	case *ast.Index:
		c.markBaseAddrTaken(e.X)
	case *ast.Member:
		if !e.Arrow {
			c.markBaseAddrTaken(e.X)
		}
	}
}

func (c *checker) typeOfBinary(e *ast.Binary) types.Type {
	t1 := c.checkExpr(e.X)
	t2 := c.checkExpr(e.Y)
	if t1 == nil || t2 == nil {
		return nil
	}
	switch e.Op {
	case token.AndAnd, token.OrOr:
		return types.Int
	case token.Eq, token.Ne, token.Lt, token.Gt, token.Le, token.Ge:
		okPair := (types.IsInteger(t1) && types.IsInteger(t2)) ||
			(types.IsPointer(t1) && types.IsPointer(t2)) ||
			(types.IsPointer(t1) && isNullConst(e.Y, t1)) ||
			(types.IsPointer(t2) && isNullConst(e.X, t2))
		if !okPair {
			c.errorf(e.P, "invalid comparison %s %s %s", t1, e.Op, t2)
		}
		return types.Int
	case token.Plus:
		if types.IsPointer(t1) && types.IsInteger(t2) {
			return t1
		}
		if types.IsInteger(t1) && types.IsPointer(t2) {
			return t2
		}
	case token.Minus:
		if types.IsPointer(t1) && types.IsInteger(t2) {
			return t1
		}
		if types.IsPointer(t1) && types.IsPointer(t2) {
			if !types.Identical(t1, t2) {
				c.errorf(e.P, "subtraction of incompatible pointers %s and %s", t1, t2)
			}
			return types.Int
		}
	}
	if !types.IsInteger(t1) || !types.IsInteger(t2) {
		c.errorf(e.P, "invalid operands to %s (%s and %s)", e.Op, t1, t2)
		return nil
	}
	return types.Int
}

func (c *checker) typeOfAssign(e *ast.Assign) types.Type {
	lt := c.checkExpr(e.LHS)
	rt := c.checkExpr(e.RHS)
	if !c.isLvalue(e.LHS) {
		c.errorf(e.P, "assignment requires an lvalue")
	}
	if lt == nil || rt == nil {
		return lt
	}
	if _, isArr := c.rawType(e.LHS).(*types.Array); isArr {
		c.errorf(e.P, "cannot assign to an array")
		return lt
	}
	if e.Op == token.Assign {
		if !types.AssignableTo(rt, lt) && !isNullConst(e.RHS, lt) {
			c.errorf(e.P, "cannot assign %s to %s", rt, lt)
		}
		return lt
	}
	// Compound assignment: pointer += int is allowed; otherwise integers.
	if (e.Op == token.PlusEq || e.Op == token.MinusEq) && types.IsPointer(lt) && types.IsInteger(rt) {
		return lt
	}
	if !types.IsInteger(lt) || !types.IsInteger(rt) {
		c.errorf(e.P, "invalid compound assignment %s %s %s", lt, e.Op, rt)
	}
	return lt
}

// rawType returns the undecayed type of an identifier expression, or the
// checked type otherwise.
func (c *checker) rawType(e ast.Expr) types.Type {
	if id, ok := e.(*ast.Ident); ok {
		if sym := c.mod.Refs[id]; sym != nil {
			return sym.Type
		}
	}
	return e.ExprType()
}

func (c *checker) typeOfCall(e *ast.Call) types.Type {
	// Direct call of a known or implicitly declared function.
	if id, ok := e.Fun.(*ast.Ident); ok {
		sym := c.lookup(id.Name)
		if sym == nil {
			// C89-style implicit declaration: extern int name(...).
			sym = c.implicitFunc(id)
		}
		c.mod.Refs[id] = sym
		switch sym.Kind {
		case FuncSym:
			ft := sym.Type.(*types.Func)
			c.checkArgs(e, ft)
			return ft.Result
		default:
			// Calling through a function-pointer variable.
			t := decay(sym.Type)
			p, ok := t.(*types.Pointer)
			if !ok {
				c.errorf(e.P, "%s is not a function", id.Name)
				return nil
			}
			ft, ok := p.Elem.(*types.Func)
			if !ok {
				c.errorf(e.P, "%s is not a function pointer", id.Name)
				return nil
			}
			c.checkArgs(e, ft)
			return ft.Result
		}
	}
	// Indirect call through an arbitrary expression.
	t := c.checkExpr(e.Fun)
	if t == nil {
		return nil
	}
	p, ok := t.(*types.Pointer)
	if !ok {
		c.errorf(e.P, "called value is not a function pointer (%s)", t)
		return nil
	}
	ft, ok := p.Elem.(*types.Func)
	if !ok {
		c.errorf(e.P, "called value is not a function pointer (%s)", t)
		return nil
	}
	c.checkArgs(e, ft)
	return ft.Result
}

// implicitFunc declares `extern int name(...)` on first use (C89 semantics),
// which lets modules call functions defined elsewhere without prototypes.
func (c *checker) implicitFunc(id *ast.Ident) *Symbol {
	ft := &types.Func{Result: types.Int, Variadic: true}
	sym := &Symbol{
		Name: id.Name, QualName: id.Name, Kind: FuncSym,
		Type: ft, Extern: true, Module: c.mod.Name,
	}
	fn := &Function{Sym: sym, FType: ft}
	c.mod.Funcs = append(c.mod.Funcs, fn)
	c.mod.funcsByName[id.Name] = fn
	return sym
}

func (c *checker) checkArgs(e *ast.Call, ft *types.Func) {
	for _, a := range e.Args {
		c.checkExpr(a)
	}
	if ft.Variadic {
		return
	}
	if len(e.Args) != len(ft.Params) {
		c.errorf(e.P, "wrong number of arguments: have %d, want %d", len(e.Args), len(ft.Params))
		return
	}
	for i, a := range e.Args {
		at := a.ExprType()
		if at == nil {
			continue
		}
		if !types.AssignableTo(at, ft.Params[i]) && !isNullConst(a, ft.Params[i]) {
			c.errorf(a.Pos(), "argument %d: cannot use %s as %s", i+1, at, ft.Params[i])
		}
	}
}

// isLvalue reports whether e designates storage.
func (c *checker) isLvalue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		sym := c.mod.Refs[e]
		return sym != nil && sym.Kind != FuncSym
	case *ast.Index:
		return true
	case *ast.Member:
		if e.Arrow {
			return true
		}
		return c.isLvalue(e.X)
	case *ast.Unary:
		return e.Op == token.Star
	}
	return false
}

// ----------------------------------------------------------------------------
// Constant evaluation (for global initializers)

// evalConst evaluates an integer constant expression.
func (c *checker) evalConst(e ast.Expr) (int64, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, true
	case *ast.Unary:
		v, ok := c.evalConst(e.X)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case token.Minus:
			return -v, true
		case token.Tilde:
			return ^v, true
		case token.Not:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	case *ast.SizeofType:
		t := c.resolveBase(e.Type)
		for i := 0; i < e.Decl.Ptr; i++ {
			t = &types.Pointer{Elem: t}
		}
		return int64(t.Size()), true
	case *ast.Binary:
		a, ok1 := c.evalConst(e.X)
		b, ok2 := c.evalConst(e.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch e.Op {
		case token.Plus:
			return a + b, true
		case token.Minus:
			return a - b, true
		case token.Star:
			return a * b, true
		case token.Slash:
			if b == 0 {
				return 0, false
			}
			return a / b, true
		case token.Percent:
			if b == 0 {
				return 0, false
			}
			return a % b, true
		case token.Shl:
			return a << uint(b&31), true
		case token.Shr:
			return a >> uint(b&31), true
		case token.Amp:
			return a & b, true
		case token.Pipe:
			return a | b, true
		case token.Caret:
			return a ^ b, true
		}
		return 0, false
	}
	return 0, false
}
