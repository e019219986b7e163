// Package sem performs symbol resolution and type checking for one MiniC
// module, producing the annotations the IR generator and the compiler first
// phase need:
//
//   - a symbol for every global, function, parameter and local, with
//     module-qualified names for statics (§7.4 of the paper);
//   - expression types;
//   - address-taken (alias) flags for globals — the eligibility filter for
//     interprocedural promotion (§4.1.2) — and for functions — the indirect
//     call-target set (§7.3);
//   - evaluated initializer bytes for global data.
package sem

import (
	"encoding/binary"
	"fmt"

	"ipra/internal/minic/ast"
	"ipra/internal/minic/token"
	"ipra/internal/minic/types"
)

// SymKind classifies symbols.
type SymKind int

// Symbol kinds.
const (
	GlobalVar SymKind = iota
	LocalVar
	ParamVar
	FuncSym
)

func (k SymKind) String() string {
	switch k {
	case GlobalVar:
		return "global"
	case LocalVar:
		return "local"
	case ParamVar:
		return "param"
	case FuncSym:
		return "func"
	}
	return "?"
}

// Symbol is a declared name.
type Symbol struct {
	Name     string // source name
	QualName string // linker name; statics are qualified "module:name"
	Kind     SymKind
	Type     types.Type
	Static   bool
	Extern   bool // declared but not defined in this module
	Module   string

	// AddrTaken records whether the symbol's address escapes: for a global
	// this means aliased references are possible (disqualifying it from
	// interprocedural promotion); for a function it means the function may
	// be the target of an indirect call.
	AddrTaken bool

	// Init holds the initial bytes for defined globals (zero-filled when no
	// initializer was given). Relocs record words that hold addresses of
	// other symbols and must be patched at link time.
	Init   []byte
	Relocs []InitReloc

	// LocalIndex numbers locals and params within their function.
	LocalIndex int
}

// InitReloc marks a word inside a global initializer that holds the address
// of another symbol (function pointer tables, string pointers).
type InitReloc struct {
	Offset int    // byte offset within Init
	Target string // qualified symbol name
	Addend int    // byte offset added to the target address
}

// Function is a checked function definition or prototype.
type Function struct {
	Sym    *Symbol
	Decl   *ast.FuncDecl
	FType  *types.Func
	Params []*Symbol
	Locals []*Symbol // every local in the body, params excluded
}

// Module is the result of checking one file.
type Module struct {
	Name    string
	File    *ast.File
	Structs map[string]*types.Struct
	Globals []*Symbol   // defined and extern globals, in declaration order
	Funcs   []*Function // defined and prototype functions
	Strings []*Symbol   // anonymous globals for string literals

	// Each checked expression's (decayed) type is on the expression
	// itself: ast.Expr's ExprType.

	// Refs maps identifier uses to their symbols.
	Refs map[*ast.Ident]*Symbol
	// FieldOf maps member expressions to the resolved struct field.
	FieldOf map[*ast.Member]*types.Field
	// StrSyms maps string literal expressions to their interned storage.
	StrSyms map[*ast.StrLit]*Symbol

	globalsByName map[string]*Symbol
	funcsByName   map[string]*Function
}

// GlobalByName returns the module's global with the given source name.
func (m *Module) GlobalByName(name string) *Symbol { return m.globalsByName[name] }

// FuncByName returns the module's function with the given source name.
func (m *Module) FuncByName(name string) *Function { return m.funcsByName[name] }

// Error is a semantic diagnostic.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

type checker struct {
	mod  *Module
	errs []error

	// scopes is the lexical scope stack for the function being checked.
	scopes []map[string]*Symbol
	fn     *Function
	nstr   int
}

// Check resolves and type-checks a parsed file.
func Check(file *ast.File) (*Module, error) {
	c := &checker{mod: &Module{
		Name:          file.Name,
		File:          file,
		Structs:       make(map[string]*types.Struct),
		Refs:          make(map[*ast.Ident]*Symbol),
		FieldOf:       make(map[*ast.Member]*types.Field),
		globalsByName: make(map[string]*Symbol),
		funcsByName:   make(map[string]*Function),
	}}
	c.collectStructs(file)
	c.collectToplevel(file)
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			c.checkFuncBody(fd)
		}
	}
	if len(c.errs) > 0 {
		return c.mod, c.errs[0]
	}
	return c.mod, nil
}

func (c *checker) errorf(pos token.Pos, format string, args ...interface{}) {
	c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// ----------------------------------------------------------------------------
// Type resolution

func (c *checker) resolveBase(t *ast.TypeExpr) types.Type {
	var base types.Type
	switch t.Base {
	case ast.BaseInt:
		base = types.Int
	case ast.BaseChar:
		base = types.Char
	case ast.BaseVoid:
		base = types.Void
	case ast.BaseStruct:
		s, ok := c.mod.Structs[t.StructName]
		if !ok {
			c.errorf(t.P, "undefined struct %s", t.StructName)
			s = types.NewStruct(t.StructName, nil)
			c.mod.Structs[t.StructName] = s
		}
		base = s
	}
	for i := 0; i < t.Ptr; i++ {
		base = &types.Pointer{Elem: base}
	}
	return base
}

// resolveDecl computes the full type of (base, declarator).
func (c *checker) resolveDecl(base *ast.TypeExpr, d *ast.Declarator) types.Type {
	t := c.resolveBase(base)
	for i := 0; i < d.Ptr; i++ {
		t = &types.Pointer{Elem: t}
	}
	if d.IsFuncPtr {
		var params []types.Type
		for _, pt := range d.FPtrParams {
			params = append(params, c.resolveBase(pt))
		}
		fp := &types.Pointer{Elem: &types.Func{Params: params, Result: t}}
		if d.IsArray {
			n := d.ArrayLen
			if n < 0 {
				n = 0
			}
			return &types.Array{Elem: fp, Len: n}
		}
		return fp
	}
	if d.IsArray {
		n := d.ArrayLen
		if n < 0 {
			n = 0 // fixed up from the initializer by the caller
		}
		return &types.Array{Elem: t, Len: n}
	}
	return t
}

func (c *checker) collectStructs(file *ast.File) {
	// First register shells so pointer fields can refer to any tag.
	for _, d := range file.Decls {
		if sd, ok := d.(*ast.StructDecl); ok {
			if _, dup := c.mod.Structs[sd.Name]; dup {
				c.errorf(sd.P, "duplicate struct %s", sd.Name)
				continue
			}
			c.mod.Structs[sd.Name] = types.NewStruct(sd.Name, nil)
		}
	}
	for _, d := range file.Decls {
		sd, ok := d.(*ast.StructDecl)
		if !ok {
			continue
		}
		s := c.mod.Structs[sd.Name]
		var fields []types.Field
		for _, f := range sd.Fields {
			ft := c.resolveDecl(f.Type, f.Decl)
			if st, ok := ft.(*types.Struct); ok && st == s {
				c.errorf(f.P, "struct %s cannot contain itself", sd.Name)
				continue
			}
			if ft.Size() == 0 {
				c.errorf(f.P, "field %s has incomplete type", f.Decl.Name)
				continue
			}
			fields = append(fields, types.Field{Name: f.Decl.Name, Type: ft})
		}
		s.SetFields(fields)
	}
}

// ----------------------------------------------------------------------------
// Top-level declarations

func (c *checker) qualify(name string, static bool) string {
	if static {
		return c.mod.Name + ":" + name
	}
	return name
}

func (c *checker) collectToplevel(file *ast.File) {
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.VarDecl:
			c.declareGlobals(d)
		case *ast.FuncDecl:
			c.declareFunc(d)
		}
	}
}

func (c *checker) declareGlobals(d *ast.VarDecl) {
	for _, item := range d.Items {
		t := c.resolveDecl(d.Type, item.Declarator)
		// Infer array length from the initializer when omitted.
		if arr, ok := t.(*types.Array); ok && arr.Len == 0 && item.Declarator.ArrayLen < 0 {
			switch {
			case len(item.InitList) > 0:
				t = &types.Array{Elem: arr.Elem, Len: len(item.InitList)}
			case item.Init != nil:
				if s, ok := item.Init.(*ast.StrLit); ok && arr.Elem == types.Char {
					t = &types.Array{Elem: arr.Elem, Len: len(s.Value) + 1}
				}
			}
		}
		if t.Size() == 0 && !d.Extern {
			c.errorf(item.Declarator.P, "variable %s has incomplete type %s", item.Declarator.Name, t)
			continue
		}
		name := item.Declarator.Name
		if prev, ok := c.mod.globalsByName[name]; ok {
			if !types.Identical(prev.Type, t) {
				c.errorf(item.Declarator.P, "conflicting declarations of %s", name)
			}
			if !d.Extern {
				prev.Extern = false
				c.initGlobal(prev, item)
			}
			continue
		}
		sym := &Symbol{
			Name:     name,
			QualName: c.qualify(name, d.Static),
			Kind:     GlobalVar,
			Type:     t,
			Static:   d.Static,
			Extern:   d.Extern,
			Module:   c.mod.Name,
		}
		c.mod.Globals = append(c.mod.Globals, sym)
		c.mod.globalsByName[name] = sym
		if !d.Extern {
			c.initGlobal(sym, item)
		}
	}
}

// initGlobal evaluates the initializer for a defined global into bytes.
func (c *checker) initGlobal(sym *Symbol, item *ast.DeclItem) {
	sym.Init = make([]byte, sym.Type.Size())
	switch t := sym.Type.(type) {
	case *types.Array:
		elemSz := t.Elem.Size()
		if s, ok := item.Init.(*ast.StrLit); ok && t.Elem == types.Char {
			if len(s.Value)+1 > t.Len {
				c.errorf(item.Declarator.P, "string initializer too long for %s", sym.Name)
				return
			}
			copy(sym.Init, s.Value)
			return
		}
		if item.Init != nil {
			c.errorf(item.Declarator.P, "array %s requires a brace initializer", sym.Name)
			return
		}
		if len(item.InitList) > t.Len {
			c.errorf(item.Declarator.P, "too many initializers for %s", sym.Name)
			return
		}
		for i, e := range item.InitList {
			c.constInto(sym, e, i*elemSz, elemSz)
		}
	case *types.Struct:
		if item.Init != nil || len(item.InitList) > 0 {
			if len(item.InitList) > len(t.Fields) {
				c.errorf(item.Declarator.P, "too many initializers for %s", sym.Name)
				return
			}
			for i, e := range item.InitList {
				f := t.Fields[i]
				c.constInto(sym, e, f.Offset, f.Type.Size())
			}
		}
	default:
		if len(item.InitList) > 0 {
			c.errorf(item.Declarator.P, "scalar %s cannot take a brace initializer", sym.Name)
			return
		}
		if item.Init != nil {
			c.constInto(sym, item.Init, 0, sym.Type.Size())
		}
	}
}

// constInto evaluates e as a constant and stores it at Init[off:off+size].
// Function names and string literals become relocations.
func (c *checker) constInto(sym *Symbol, e ast.Expr, off, size int) {
	// &func or bare func name in a pointer initializer.
	if id, ok := e.(*ast.Ident); ok {
		if fn, ok2 := c.mod.funcsByName[id.Name]; ok2 {
			fn.Sym.AddrTaken = true
			sym.Relocs = append(sym.Relocs, InitReloc{Offset: off, Target: fn.Sym.QualName})
			return
		}
	}
	if u, ok := e.(*ast.Unary); ok && u.Op == token.Amp {
		if id, ok2 := u.X.(*ast.Ident); ok2 {
			if fn, ok3 := c.mod.funcsByName[id.Name]; ok3 {
				fn.Sym.AddrTaken = true
				sym.Relocs = append(sym.Relocs, InitReloc{Offset: off, Target: fn.Sym.QualName})
				return
			}
			if g, ok3 := c.mod.globalsByName[id.Name]; ok3 {
				g.AddrTaken = true
				sym.Relocs = append(sym.Relocs, InitReloc{Offset: off, Target: g.QualName})
				return
			}
		}
	}
	if s, ok := e.(*ast.StrLit); ok {
		lit := c.internString(s)
		sym.Relocs = append(sym.Relocs, InitReloc{Offset: off, Target: lit.QualName})
		return
	}
	v, ok := c.evalConst(e)
	if !ok {
		c.errorf(e.Pos(), "initializer for %s is not constant", sym.Name)
		return
	}
	switch size {
	case 1:
		sym.Init[off] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(sym.Init[off:], uint16(v))
	default:
		binary.LittleEndian.PutUint32(sym.Init[off:], uint32(v))
	}
}

// internString creates (or reuses) the anonymous global for a string literal.
func (c *checker) internString(s *ast.StrLit) *Symbol {
	name := fmt.Sprintf("%s:.str%d", c.mod.Name, c.nstr)
	c.nstr++
	data := make([]byte, len(s.Value)+1)
	copy(data, s.Value)
	sym := &Symbol{
		Name:     name,
		QualName: name,
		Kind:     GlobalVar,
		Type:     &types.Array{Elem: types.Char, Len: len(data)},
		Static:   true,
		Module:   c.mod.Name,
		Init:     data,
		// String literal storage is always address-taken by construction.
		AddrTaken: true,
	}
	c.mod.Strings = append(c.mod.Strings, sym)
	return sym
}

func (c *checker) declareFunc(d *ast.FuncDecl) {
	ret := c.resolveBase(d.Ret)
	for i := 0; i < d.RetPtr; i++ {
		ret = &types.Pointer{Elem: ret}
	}
	if _, isStruct := ret.(*types.Struct); isStruct {
		c.errorf(d.P, "function %s: struct return values are not supported (return a pointer)", d.Name)
		ret = types.Int
	}
	var params []types.Type
	var psyms []*Symbol
	for i, p := range d.Params {
		pt := c.resolveDecl(p.Type, p.Decl)
		// Array parameters decay to pointers, as in C.
		if arr, ok := pt.(*types.Array); ok {
			pt = &types.Pointer{Elem: arr.Elem}
		}
		if _, isStruct := pt.(*types.Struct); isStruct {
			c.errorf(p.P, "function %s: struct parameters are not supported (pass a pointer)", d.Name)
			pt = types.Int
		}
		params = append(params, pt)
		psyms = append(psyms, &Symbol{
			Name: p.Decl.Name, QualName: p.Decl.Name, Kind: ParamVar,
			Type: pt, Module: c.mod.Name, LocalIndex: i,
		})
	}
	ft := &types.Func{Params: params, Result: ret}

	if prev, ok := c.mod.funcsByName[d.Name]; ok {
		if !types.Identical(prev.FType, ft) {
			c.errorf(d.P, "conflicting declarations of function %s", d.Name)
		}
		if d.Body != nil {
			if !prev.Sym.Extern {
				c.errorf(d.P, "function %s redefined", d.Name)
			}
			prev.Sym.Extern = false
			prev.Decl = d
			prev.Params = psyms
		}
		return
	}
	sym := &Symbol{
		Name:     d.Name,
		QualName: c.qualify(d.Name, d.Static),
		Kind:     FuncSym,
		Type:     ft,
		Static:   d.Static,
		Extern:   d.Body == nil,
		Module:   c.mod.Name,
	}
	fn := &Function{Sym: sym, Decl: d, FType: ft, Params: psyms}
	c.mod.Funcs = append(c.mod.Funcs, fn)
	c.mod.funcsByName[d.Name] = fn
}

// ----------------------------------------------------------------------------
// Function bodies

func (c *checker) pushScope() { c.scopes = append(c.scopes, make(map[string]*Symbol)) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) define(sym *Symbol) {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[sym.Name]; dup {
		c.errorf(token.Pos{}, "redeclaration of %s", sym.Name)
	}
	top[sym.Name] = sym
}

func (c *checker) lookup(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	if g, ok := c.mod.globalsByName[name]; ok {
		return g
	}
	if f, ok := c.mod.funcsByName[name]; ok {
		return f.Sym
	}
	return nil
}

func (c *checker) checkFuncBody(d *ast.FuncDecl) {
	fn := c.mod.funcsByName[d.Name]
	c.fn = fn
	c.pushScope()
	for _, p := range fn.Params {
		c.define(p)
	}
	c.checkBlock(d.Body)
	c.popScope()
	c.fn = nil
}

func (c *checker) checkBlock(b *ast.Block) {
	c.pushScope()
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
	c.popScope()
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.Block:
		c.checkBlock(s)
	case *ast.ExprStmt:
		c.checkExpr(s.X)
	case *ast.If:
		c.wantScalarCond(s.Cond)
		c.checkStmt(s.Then)
		if s.Else != nil {
			c.checkStmt(s.Else)
		}
	case *ast.While:
		c.wantScalarCond(s.Cond)
		c.checkStmt(s.Body)
	case *ast.DoWhile:
		c.checkStmt(s.Body)
		c.wantScalarCond(s.Cond)
	case *ast.For:
		c.pushScope()
		if s.Init != nil {
			c.checkStmt(s.Init)
		}
		if s.Cond != nil {
			c.wantScalarCond(s.Cond)
		}
		if s.Post != nil {
			c.checkExpr(s.Post)
		}
		c.checkStmt(s.Body)
		c.popScope()
	case *ast.Return:
		want := c.fn.FType.Result
		if s.X == nil {
			if want != types.Void {
				c.errorf(s.P, "missing return value in %s", c.fn.Sym.Name)
			}
			return
		}
		got := c.checkExpr(s.X)
		if want == types.Void {
			c.errorf(s.P, "void function %s returns a value", c.fn.Sym.Name)
		} else if got != nil && !types.AssignableTo(got, want) && !isNullConst(s.X, want) {
			c.errorf(s.P, "cannot return %s as %s", got, want)
		}
	case *ast.LocalDecl:
		c.checkLocalDecl(s)
	case *ast.Break, *ast.Continue, *ast.Empty:
		// Loop nesting is validated structurally by irgen; nothing to check.
	}
}

func (c *checker) checkLocalDecl(s *ast.LocalDecl) {
	for _, item := range s.Items {
		t := c.resolveDecl(s.Type, item.Declarator)
		if arr, ok := t.(*types.Array); ok && arr.Len == 0 && item.Declarator.ArrayLen < 0 {
			if len(item.InitList) > 0 {
				t = &types.Array{Elem: arr.Elem, Len: len(item.InitList)}
			}
		}
		if t.Size() == 0 {
			c.errorf(item.Declarator.P, "local %s has incomplete type %s", item.Declarator.Name, t)
			continue
		}
		sym := &Symbol{
			Name: item.Declarator.Name, QualName: item.Declarator.Name,
			Kind: LocalVar, Type: t, Module: c.mod.Name,
			LocalIndex: len(c.fn.Locals),
		}
		c.fn.Locals = append(c.fn.Locals, sym)
		c.define(sym)
		if item.Init != nil {
			got := c.checkExpr(item.Init)
			want := t
			if arr, ok := want.(*types.Array); ok {
				if _, isStr := item.Init.(*ast.StrLit); isStr && arr.Elem == types.Char {
					continue // char a[] = "..." handled by irgen
				}
			}
			if got != nil && !types.AssignableTo(got, want) && !isNullConst(item.Init, want) {
				c.errorf(item.Declarator.P, "cannot initialize %s with %s", want, got)
			}
		}
		for _, e := range item.InitList {
			c.checkExpr(e)
		}
	}
}

func (c *checker) wantScalarCond(e ast.Expr) {
	t := c.checkExpr(e)
	if t == nil {
		return
	}
	if !types.IsInteger(t) && !types.IsPointer(t) {
		c.errorf(e.Pos(), "condition must be scalar, found %s", t)
	}
}

// isNullConst reports whether e is the literal 0 being used as a null
// pointer for destination type want.
func isNullConst(e ast.Expr, want types.Type) bool {
	lit, ok := e.(*ast.IntLit)
	return ok && lit.Value == 0 && types.IsPointer(want)
}
