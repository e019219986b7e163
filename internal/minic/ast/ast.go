// Package ast defines the abstract syntax tree for MiniC modules.
//
// One File corresponds to one compilation unit (module) — the granularity at
// which the paper's compiler first phase runs and at which summary files are
// produced.
package ast

import (
	"ipra/internal/minic/token"
	"ipra/internal/minic/types"
)

// Node is the interface implemented by all AST nodes.
type Node interface {
	Pos() token.Pos
}

// Expr is an expression node.
type Expr interface {
	Node
	// ExprType is the expression's (decayed) type as the semantic checker
	// recorded it, or nil if it recorded none.
	ExprType() types.Type
	// SetExprType records the expression's type.
	SetExprType(types.Type)
	exprNode()
}

// typed is embedded in every expression node: the checker records the
// node's type in it and the IR generator reads it back, so each typed
// expression costs one field, not a map entry.
type typed struct{ t types.Type }

// ExprType implements Expr.
func (x *typed) ExprType() types.Type { return x.t }

// SetExprType implements Expr.
func (x *typed) SetExprType(t types.Type) { x.t = t }

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// Decl is a top-level declaration node.
type Decl interface {
	Node
	declNode()
}

// ----------------------------------------------------------------------------
// Type expressions (syntactic types; resolved by sem)

// BaseKind identifies the base of a syntactic type.
type BaseKind int

// Syntactic type bases.
const (
	BaseInt BaseKind = iota
	BaseChar
	BaseVoid
	BaseStruct
)

// TypeExpr is a syntactic type: a base plus pointer depth. Array lengths and
// function-pointer shapes live in the Declarator.
type TypeExpr struct {
	P          token.Pos
	Base       BaseKind
	StructName string // for BaseStruct
	Ptr        int    // number of leading '*'
}

// Pos implements Node.
func (t *TypeExpr) Pos() token.Pos { return t.P }

// Declarator carries the per-name part of a declaration: `*p`, `a[10]`, or
// the function-pointer form `(*f)(int, int)`.
type Declarator struct {
	P        token.Pos
	Name     string
	Ptr      int  // extra '*' in front of the name
	IsArray  bool // name[Len]
	ArrayLen int
	// Function pointer declarator: Type (*Name)(FPtrParams...)
	IsFuncPtr  bool
	FPtrParams []*TypeExpr
}

// Pos implements Node.
func (d *Declarator) Pos() token.Pos { return d.P }

// ----------------------------------------------------------------------------
// Expressions

// IntLit is an integer (or character) literal.
type IntLit struct {
	typed
	P     token.Pos
	Value int64
}

// StrLit is a string literal.
type StrLit struct {
	typed
	P     token.Pos
	Value string
}

// Ident is a use of a name.
type Ident struct {
	typed
	P    token.Pos
	Name string
}

// Unary is a prefix operator: - ! ~ * & ++ --.
type Unary struct {
	typed
	P  token.Pos
	Op token.Kind
	X  Expr
}

// Postfix is a postfix operator: x++ or x--.
type Postfix struct {
	typed
	P  token.Pos
	Op token.Kind
	X  Expr
}

// Binary is a binary operator (arithmetic, comparison, logical, shifts).
type Binary struct {
	typed
	P    token.Pos
	Op   token.Kind
	X, Y Expr
}

// Assign is a (possibly compound) assignment.
type Assign struct {
	typed
	P   token.Pos
	Op  token.Kind // Assign, PlusEq, ...
	LHS Expr
	RHS Expr
}

// Cond is the ternary conditional operator.
type Cond struct {
	typed
	P    token.Pos
	C    Expr
	Then Expr
	Else Expr
}

// Call is a function call; Fun is either an Ident (direct call, possibly to
// a function-pointer variable) or an arbitrary expression (indirect call).
type Call struct {
	typed
	P    token.Pos
	Fun  Expr
	Args []Expr
}

// Index is array subscripting.
type Index struct {
	typed
	P   token.Pos
	X   Expr
	Idx Expr
}

// Member is struct member access, either x.f or x->f.
type Member struct {
	typed
	P     token.Pos
	X     Expr
	Name  string
	Arrow bool
}

// SizeofType is sizeof(type).
type SizeofType struct {
	typed
	P    token.Pos
	Type *TypeExpr
	Decl *Declarator // optional array/pointer shape: sizeof(int[4]) is not supported; kept for pointer depth
}

// Pos implementations.
func (e *IntLit) Pos() token.Pos     { return e.P }
func (e *StrLit) Pos() token.Pos     { return e.P }
func (e *Ident) Pos() token.Pos      { return e.P }
func (e *Unary) Pos() token.Pos      { return e.P }
func (e *Postfix) Pos() token.Pos    { return e.P }
func (e *Binary) Pos() token.Pos     { return e.P }
func (e *Assign) Pos() token.Pos     { return e.P }
func (e *Cond) Pos() token.Pos       { return e.P }
func (e *Call) Pos() token.Pos       { return e.P }
func (e *Index) Pos() token.Pos      { return e.P }
func (e *Member) Pos() token.Pos     { return e.P }
func (e *SizeofType) Pos() token.Pos { return e.P }

func (*IntLit) exprNode()     {}
func (*StrLit) exprNode()     {}
func (*Ident) exprNode()      {}
func (*Unary) exprNode()      {}
func (*Postfix) exprNode()    {}
func (*Binary) exprNode()     {}
func (*Assign) exprNode()     {}
func (*Cond) exprNode()       {}
func (*Call) exprNode()       {}
func (*Index) exprNode()      {}
func (*Member) exprNode()     {}
func (*SizeofType) exprNode() {}

// ----------------------------------------------------------------------------
// Statements

// Block is a brace-delimited statement list.
type Block struct {
	P     token.Pos
	Stmts []Stmt
}

// ExprStmt is an expression evaluated for effect.
type ExprStmt struct {
	P token.Pos
	X Expr
}

// If is a conditional statement; Else may be nil.
type If struct {
	P    token.Pos
	Cond Expr
	Then Stmt
	Else Stmt
}

// While is a pre-tested loop.
type While struct {
	P    token.Pos
	Cond Expr
	Body Stmt
}

// DoWhile is a post-tested loop.
type DoWhile struct {
	P    token.Pos
	Body Stmt
	Cond Expr
}

// For is a C for loop; Init, Cond, Post may each be nil.
type For struct {
	P    token.Pos
	Init Stmt // ExprStmt or LocalDecl or nil
	Cond Expr
	Post Expr
	Body Stmt
}

// Return is a return statement; X may be nil.
type Return struct {
	P token.Pos
	X Expr
}

// Break exits the innermost loop.
type Break struct{ P token.Pos }

// Continue advances the innermost loop.
type Continue struct{ P token.Pos }

// Empty is a lone semicolon.
type Empty struct{ P token.Pos }

// LocalDecl declares local variables. Each item may carry an initializer.
type LocalDecl struct {
	P     token.Pos
	Type  *TypeExpr
	Items []*DeclItem
}

// Pos implementations.
func (s *Block) Pos() token.Pos     { return s.P }
func (s *ExprStmt) Pos() token.Pos  { return s.P }
func (s *If) Pos() token.Pos        { return s.P }
func (s *While) Pos() token.Pos     { return s.P }
func (s *DoWhile) Pos() token.Pos   { return s.P }
func (s *For) Pos() token.Pos       { return s.P }
func (s *Return) Pos() token.Pos    { return s.P }
func (s *Break) Pos() token.Pos     { return s.P }
func (s *Continue) Pos() token.Pos  { return s.P }
func (s *Empty) Pos() token.Pos     { return s.P }
func (s *LocalDecl) Pos() token.Pos { return s.P }

func (*Block) stmtNode()     {}
func (*ExprStmt) stmtNode()  {}
func (*If) stmtNode()        {}
func (*While) stmtNode()     {}
func (*DoWhile) stmtNode()   {}
func (*For) stmtNode()       {}
func (*Return) stmtNode()    {}
func (*Break) stmtNode()     {}
func (*Continue) stmtNode()  {}
func (*Empty) stmtNode()     {}
func (*LocalDecl) stmtNode() {}

// ----------------------------------------------------------------------------
// Declarations

// DeclItem is one declared name with an optional initializer. For scalars
// Init is an Expr; for arrays InitList or a StrLit (char arrays) is used.
type DeclItem struct {
	Declarator *Declarator
	Init       Expr
	InitList   []Expr
}

// VarDecl declares module-level variables.
type VarDecl struct {
	P      token.Pos
	Static bool
	Extern bool
	Type   *TypeExpr
	Items  []*DeclItem
}

// Param is a function parameter.
type Param struct {
	P    token.Pos
	Type *TypeExpr
	Decl *Declarator // carries name and pointer/array/funcptr shape
}

// FuncDecl declares (Body == nil) or defines a function.
type FuncDecl struct {
	P      token.Pos
	Static bool
	Ret    *TypeExpr
	RetPtr int // extra '*' between type and name
	Name   string
	Params []*Param
	Body   *Block
}

// StructDecl defines a struct tag.
type StructDecl struct {
	P      token.Pos
	Name   string
	Fields []*StructField
}

// StructField is one member declaration inside a struct.
type StructField struct {
	P    token.Pos
	Type *TypeExpr
	Decl *Declarator
}

// Pos implementations.
func (d *VarDecl) Pos() token.Pos    { return d.P }
func (d *FuncDecl) Pos() token.Pos   { return d.P }
func (d *StructDecl) Pos() token.Pos { return d.P }

func (*VarDecl) declNode()    {}
func (*FuncDecl) declNode()   {}
func (*StructDecl) declNode() {}

// File is one parsed module.
type File struct {
	Name  string // module (file) name; qualifies statics
	Decls []Decl
}
