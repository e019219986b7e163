// Package parser implements a recursive-descent parser for MiniC.
//
// The grammar is a C subset chosen to be rich enough to write the paper's
// benchmark programs: module-level (optionally static) variables and
// functions, structs, arrays with initializers, pointers, function pointers,
// and the usual statement and expression forms.
package parser

import (
	"fmt"

	"ipra/internal/minic/ast"
	"ipra/internal/minic/lexer"
	"ipra/internal/minic/token"
)

// Error is a syntax error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parser holds parsing state for one module.
type Parser struct {
	lx *lexer.Lexer
	// win is the current token and the two after it, the furthest the
	// grammar looks ahead: the parser pulls tokens from the lexer as it
	// advances instead of holding the module's whole token list.
	win [3]token.Token
	// pos counts the tokens consumed, so a loop can tell it made progress.
	pos  int
	errs []error

	// structTags records struct tags seen so far so that `struct X` in a
	// type position is accepted before its definition completes (self
	// references through pointers).
	structTags map[string]bool
}

// ParseFile lexes and parses one module. The returned error (if non-nil)
// wraps the first of possibly several diagnostics; all are available via
// Errors on the returned parser state in package-internal tests.
func ParseFile(name string, src []byte) (*ast.File, error) {
	lx := lexer.New(name, src)
	p := &Parser{lx: lx, structTags: make(map[string]bool)}
	for i := range p.win {
		p.win[i] = lx.Next()
	}
	file := &ast.File{Name: name}
	for !p.at(token.EOF) {
		before := p.pos
		d := p.parseTopDecl()
		if d != nil {
			file.Decls = append(file.Decls, d)
		}
		if p.pos == before {
			// Defensive: never loop without progress on malformed input.
			p.advance()
		}
		if len(lx.Errors())+len(p.errs) > 32 {
			break
		}
	}
	// Lexical errors come first, so the one reported is the first in the
	// file wherever parsing stopped.
	for lx.Next().Kind != token.EOF {
	}
	if le := lx.Errors(); len(le) > 0 {
		return file, le[0]
	}
	if len(p.errs) > 0 {
		return file, p.errs[0]
	}
	return file, nil
}

func (p *Parser) cur() token.Token  { return p.win[0] }
func (p *Parser) peek() token.Token { return p.win[1] }

func (p *Parser) at(k token.Kind) bool { return p.cur().Kind == k }

// advance consumes the current token; at EOF it stays put.
func (p *Parser) advance() token.Token {
	t := p.cur()
	if t.Kind != token.EOF {
		p.win[0], p.win[1] = p.win[1], p.win[2]
		p.win[2] = p.lx.Next()
		p.pos++
	}
	return t
}

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.advance()
	}
	p.errorf(p.cur().Pos, "expected %s, found %s", k, p.cur())
	return token.Token{Kind: k, Pos: p.cur().Pos}
}

func (p *Parser) errorf(pos token.Pos, format string, args ...interface{}) {
	p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// sync skips tokens until a likely statement/declaration boundary.
func (p *Parser) sync() {
	for !p.at(token.EOF) {
		if p.accept(token.Semi) {
			return
		}
		if p.at(token.RBrace) {
			return
		}
		p.advance()
	}
}

// atTypeStart reports whether the current token can begin a type.
func (p *Parser) atTypeStart() bool {
	switch p.cur().Kind {
	case token.KwInt, token.KwChar, token.KwVoid, token.KwStruct:
		return true
	}
	return false
}

// ----------------------------------------------------------------------------
// Declarations

func (p *Parser) parseTopDecl() ast.Decl {
	pos := p.cur().Pos
	static := false
	extern := false
	for {
		if p.accept(token.KwStatic) {
			static = true
			continue
		}
		if p.accept(token.KwExtern) {
			extern = true
			continue
		}
		break
	}

	// struct definition: struct Name { ... };
	if p.at(token.KwStruct) && p.peek().Kind == token.Ident {
		// Lookahead for '{' after the tag.
		if p.win[2].Kind == token.LBrace {
			if static || extern {
				p.errorf(pos, "struct definition cannot be static or extern")
			}
			return p.parseStructDecl()
		}
	}

	if !p.atTypeStart() {
		p.errorf(p.cur().Pos, "expected declaration, found %s", p.cur())
		p.sync()
		return nil
	}
	base := p.parseTypeSpec()

	// Pointer stars preceding the declared name.
	ptr := 0
	for p.accept(token.Star) {
		ptr++
	}

	// Function pointer variable at top level: type (*name)(params)
	if p.at(token.LParen) && p.peek().Kind == token.Star {
		d := p.parseFuncPtrDeclarator()
		d.Ptr += ptr
		items := p.parseDeclItems(base, d)
		p.expect(token.Semi)
		return &ast.VarDecl{P: pos, Static: static, Extern: extern, Type: base, Items: items}
	}

	nameTok := p.expect(token.Ident)

	if p.at(token.LParen) {
		// Function declaration or definition.
		return p.parseFuncDecl(pos, static, base, ptr, nameTok.Lit)
	}

	// Variable declaration.
	d := &ast.Declarator{P: nameTok.Pos, Name: nameTok.Lit, Ptr: ptr}
	p.parseArraySuffix(d)
	items := p.parseDeclItems(base, d)
	p.expect(token.Semi)
	return &ast.VarDecl{P: pos, Static: static, Extern: extern, Type: base, Items: items}
}

// parseDeclItems parses the initializer for the first declarator and any
// following comma-separated declarators in the same declaration.
func (p *Parser) parseDeclItems(base *ast.TypeExpr, first *ast.Declarator) []*ast.DeclItem {
	items := []*ast.DeclItem{p.parseInitializer(first)}
	for p.accept(token.Comma) {
		d := p.parseDeclarator()
		items = append(items, p.parseInitializer(d))
	}
	return items
}

// parseDeclarator parses [*...] name [array-suffix] or a function-pointer
// declarator.
func (p *Parser) parseDeclarator() *ast.Declarator {
	ptr := 0
	for p.accept(token.Star) {
		ptr++
	}
	if p.at(token.LParen) && p.peek().Kind == token.Star {
		d := p.parseFuncPtrDeclarator()
		d.Ptr += ptr
		return d
	}
	nameTok := p.expect(token.Ident)
	d := &ast.Declarator{P: nameTok.Pos, Name: nameTok.Lit, Ptr: ptr}
	p.parseArraySuffix(d)
	return d
}

// parseFuncPtrDeclarator parses (*name)(param-types) and the array form
// (*name[N])(param-types).
func (p *Parser) parseFuncPtrDeclarator() *ast.Declarator {
	lp := p.expect(token.LParen)
	p.expect(token.Star)
	nameTok := p.expect(token.Ident)
	d := &ast.Declarator{P: lp.Pos, Name: nameTok.Lit, IsFuncPtr: true}
	p.parseArraySuffix(d)
	p.expect(token.RParen)
	p.expect(token.LParen)
	if !p.at(token.RParen) {
		for {
			t := p.parseTypeSpec()
			for p.accept(token.Star) {
				t.Ptr++
			}
			// Parameter names in function-pointer types are allowed and ignored.
			p.accept(token.Ident)
			d.FPtrParams = append(d.FPtrParams, t)
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	p.expect(token.RParen)
	return d
}

func (p *Parser) parseArraySuffix(d *ast.Declarator) {
	if p.accept(token.LBracket) {
		d.IsArray = true
		if p.at(token.Int) {
			d.ArrayLen = int(p.advance().Val)
		} else if p.at(token.RBracket) {
			d.ArrayLen = -1 // length from initializer
		} else {
			p.errorf(p.cur().Pos, "array length must be an integer literal")
		}
		p.expect(token.RBracket)
	}
}

func (p *Parser) parseInitializer(d *ast.Declarator) *ast.DeclItem {
	item := &ast.DeclItem{Declarator: d}
	if !p.accept(token.Assign) {
		return item
	}
	if p.at(token.LBrace) {
		p.advance()
		for !p.at(token.RBrace) && !p.at(token.EOF) {
			item.InitList = append(item.InitList, p.parseAssignExpr())
			if !p.accept(token.Comma) {
				break
			}
		}
		p.expect(token.RBrace)
		return item
	}
	item.Init = p.parseAssignExpr()
	return item
}

func (p *Parser) parseTypeSpec() *ast.TypeExpr {
	pos := p.cur().Pos
	switch {
	case p.accept(token.KwInt):
		return &ast.TypeExpr{P: pos, Base: ast.BaseInt}
	case p.accept(token.KwChar):
		return &ast.TypeExpr{P: pos, Base: ast.BaseChar}
	case p.accept(token.KwVoid):
		return &ast.TypeExpr{P: pos, Base: ast.BaseVoid}
	case p.accept(token.KwStruct):
		nameTok := p.expect(token.Ident)
		p.structTags[nameTok.Lit] = true
		return &ast.TypeExpr{P: pos, Base: ast.BaseStruct, StructName: nameTok.Lit}
	default:
		p.errorf(pos, "expected type, found %s", p.cur())
		p.advance()
		return &ast.TypeExpr{P: pos, Base: ast.BaseInt}
	}
}

func (p *Parser) parseStructDecl() ast.Decl {
	pos := p.expect(token.KwStruct).Pos
	nameTok := p.expect(token.Ident)
	p.structTags[nameTok.Lit] = true
	p.expect(token.LBrace)
	sd := &ast.StructDecl{P: pos, Name: nameTok.Lit}
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		ft := p.parseTypeSpec()
		for {
			d := p.parseDeclarator()
			sd.Fields = append(sd.Fields, &ast.StructField{P: d.P, Type: ft, Decl: d})
			if !p.accept(token.Comma) {
				break
			}
		}
		p.expect(token.Semi)
	}
	p.expect(token.RBrace)
	p.expect(token.Semi)
	return sd
}

func (p *Parser) parseFuncDecl(pos token.Pos, static bool, ret *ast.TypeExpr, retPtr int, name string) ast.Decl {
	p.expect(token.LParen)
	fd := &ast.FuncDecl{P: pos, Static: static, Ret: ret, RetPtr: retPtr, Name: name}
	if p.at(token.KwVoid) && p.peek().Kind == token.RParen {
		p.advance() // f(void)
	} else if !p.at(token.RParen) {
		for {
			pt := p.parseTypeSpec()
			d := p.parseDeclarator()
			fd.Params = append(fd.Params, &ast.Param{P: d.P, Type: pt, Decl: d})
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	p.expect(token.RParen)
	if p.accept(token.Semi) {
		return fd // prototype
	}
	fd.Body = p.parseBlock()
	return fd
}

// ----------------------------------------------------------------------------
// Statements

func (p *Parser) parseBlock() *ast.Block {
	pos := p.expect(token.LBrace).Pos
	b := &ast.Block{P: pos}
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		before := p.pos
		b.Stmts = append(b.Stmts, p.parseStmt())
		if p.pos == before {
			p.advance()
		}
	}
	p.expect(token.RBrace)
	return b
}

func (p *Parser) parseStmt() ast.Stmt {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case token.LBrace:
		return p.parseBlock()
	case token.Semi:
		p.advance()
		return &ast.Empty{P: pos}
	case token.KwIf:
		p.advance()
		p.expect(token.LParen)
		cond := p.parseExpr()
		p.expect(token.RParen)
		then := p.parseStmt()
		var els ast.Stmt
		if p.accept(token.KwElse) {
			els = p.parseStmt()
		}
		return &ast.If{P: pos, Cond: cond, Then: then, Else: els}
	case token.KwWhile:
		p.advance()
		p.expect(token.LParen)
		cond := p.parseExpr()
		p.expect(token.RParen)
		return &ast.While{P: pos, Cond: cond, Body: p.parseStmt()}
	case token.KwDo:
		p.advance()
		body := p.parseStmt()
		p.expect(token.KwWhile)
		p.expect(token.LParen)
		cond := p.parseExpr()
		p.expect(token.RParen)
		p.expect(token.Semi)
		return &ast.DoWhile{P: pos, Body: body, Cond: cond}
	case token.KwFor:
		p.advance()
		p.expect(token.LParen)
		f := &ast.For{P: pos}
		if !p.at(token.Semi) {
			if p.atTypeStart() {
				f.Init = p.parseLocalDecl()
			} else {
				f.Init = &ast.ExprStmt{P: p.cur().Pos, X: p.parseExpr()}
				p.expect(token.Semi)
			}
		} else {
			p.advance()
		}
		if !p.at(token.Semi) {
			f.Cond = p.parseExpr()
		}
		p.expect(token.Semi)
		if !p.at(token.RParen) {
			f.Post = p.parseExpr()
		}
		p.expect(token.RParen)
		f.Body = p.parseStmt()
		return f
	case token.KwReturn:
		p.advance()
		r := &ast.Return{P: pos}
		if !p.at(token.Semi) {
			r.X = p.parseExpr()
		}
		p.expect(token.Semi)
		return r
	case token.KwBreak:
		p.advance()
		p.expect(token.Semi)
		return &ast.Break{P: pos}
	case token.KwContinue:
		p.advance()
		p.expect(token.Semi)
		return &ast.Continue{P: pos}
	default:
		if p.atTypeStart() {
			return p.parseLocalDecl()
		}
		x := p.parseExpr()
		p.expect(token.Semi)
		return &ast.ExprStmt{P: pos, X: x}
	}
}

// parseLocalDecl parses a local variable declaration statement, consuming
// the trailing semicolon.
func (p *Parser) parseLocalDecl() ast.Stmt {
	pos := p.cur().Pos
	base := p.parseTypeSpec()
	ld := &ast.LocalDecl{P: pos, Type: base}
	for {
		d := p.parseDeclarator()
		ld.Items = append(ld.Items, p.parseInitializer(d))
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.Semi)
	return ld
}

// ----------------------------------------------------------------------------
// Expressions

func (p *Parser) parseExpr() ast.Expr { return p.parseAssignExpr() }

func isAssignOp(k token.Kind) bool {
	switch k {
	case token.Assign, token.PlusEq, token.MinusEq, token.StarEq, token.SlashEq,
		token.PercentEq, token.AmpEq, token.PipeEq, token.CaretEq, token.ShlEq, token.ShrEq:
		return true
	}
	return false
}

func (p *Parser) parseAssignExpr() ast.Expr {
	lhs := p.parseCondExpr()
	if isAssignOp(p.cur().Kind) {
		op := p.advance()
		rhs := p.parseAssignExpr()
		return &ast.Assign{P: op.Pos, Op: op.Kind, LHS: lhs, RHS: rhs}
	}
	return lhs
}

func (p *Parser) parseCondExpr() ast.Expr {
	c := p.parseBinaryExpr(1)
	if p.at(token.Question) {
		q := p.advance()
		then := p.parseExpr()
		p.expect(token.Colon)
		els := p.parseCondExpr()
		return &ast.Cond{P: q.Pos, C: c, Then: then, Else: els}
	}
	return c
}

// precedence returns the binding power of a binary operator, or 0.
func precedence(k token.Kind) int {
	switch k {
	case token.OrOr:
		return 1
	case token.AndAnd:
		return 2
	case token.Pipe:
		return 3
	case token.Caret:
		return 4
	case token.Amp:
		return 5
	case token.Eq, token.Ne:
		return 6
	case token.Lt, token.Gt, token.Le, token.Ge:
		return 7
	case token.Shl, token.Shr:
		return 8
	case token.Plus, token.Minus:
		return 9
	case token.Star, token.Slash, token.Percent:
		return 10
	}
	return 0
}

func (p *Parser) parseBinaryExpr(minPrec int) ast.Expr {
	x := p.parseUnaryExpr()
	for {
		prec := precedence(p.cur().Kind)
		if prec < minPrec {
			return x
		}
		op := p.advance()
		y := p.parseBinaryExpr(prec + 1)
		x = &ast.Binary{P: op.Pos, Op: op.Kind, X: x, Y: y}
	}
}

func (p *Parser) parseUnaryExpr() ast.Expr {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case token.Minus, token.Not, token.Tilde, token.Star, token.Amp, token.Plus:
		op := p.advance()
		if op.Kind == token.Plus {
			return p.parseUnaryExpr() // unary plus is a no-op
		}
		return &ast.Unary{P: pos, Op: op.Kind, X: p.parseUnaryExpr()}
	case token.PlusPlus, token.MinusMinus:
		op := p.advance()
		return &ast.Unary{P: pos, Op: op.Kind, X: p.parseUnaryExpr()}
	case token.KwSizeof:
		p.advance()
		p.expect(token.LParen)
		t := p.parseTypeSpec()
		d := &ast.Declarator{P: pos}
		for p.accept(token.Star) {
			d.Ptr++
		}
		p.expect(token.RParen)
		return &ast.SizeofType{P: pos, Type: t, Decl: d}
	default:
		return p.parsePostfixExpr()
	}
}

func (p *Parser) parsePostfixExpr() ast.Expr {
	x := p.parsePrimaryExpr()
	for {
		pos := p.cur().Pos
		switch p.cur().Kind {
		case token.LParen:
			p.advance()
			call := &ast.Call{P: pos, Fun: x}
			if !p.at(token.RParen) {
				for {
					call.Args = append(call.Args, p.parseAssignExpr())
					if !p.accept(token.Comma) {
						break
					}
				}
			}
			p.expect(token.RParen)
			x = call
		case token.LBracket:
			p.advance()
			idx := p.parseExpr()
			p.expect(token.RBracket)
			x = &ast.Index{P: pos, X: x, Idx: idx}
		case token.Dot:
			p.advance()
			name := p.expect(token.Ident)
			x = &ast.Member{P: pos, X: x, Name: name.Lit}
		case token.Arrow:
			p.advance()
			name := p.expect(token.Ident)
			x = &ast.Member{P: pos, X: x, Name: name.Lit, Arrow: true}
		case token.PlusPlus, token.MinusMinus:
			op := p.advance()
			x = &ast.Postfix{P: pos, Op: op.Kind, X: x}
		default:
			return x
		}
	}
}

func (p *Parser) parsePrimaryExpr() ast.Expr {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case token.Int:
		t := p.advance()
		return &ast.IntLit{P: pos, Value: t.Val}
	case token.String:
		t := p.advance()
		return &ast.StrLit{P: pos, Value: t.Lit}
	case token.Ident:
		t := p.advance()
		return &ast.Ident{P: pos, Name: t.Lit}
	case token.LParen:
		p.advance()
		x := p.parseExpr()
		p.expect(token.RParen)
		return x
	default:
		p.errorf(pos, "expected expression, found %s", p.cur())
		p.advance()
		return &ast.IntLit{P: pos, Value: 0}
	}
}
