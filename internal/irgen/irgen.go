// Package irgen lowers a checked MiniC module to the ir package's
// three-address representation. This is the back half of the compiler first
// phase: the produced ir.Module is what gets written to the intermediate
// file and later consumed by the compiler second phase.
package irgen

import (
	"fmt"

	"ipra/internal/ir"
	"ipra/internal/minic/ast"
	"ipra/internal/minic/sem"
	"ipra/internal/minic/token"
	"ipra/internal/minic/types"
)

// Generate lowers the module. It assumes sem.Check succeeded.
func Generate(mod *sem.Module) (*ir.Module, error) {
	g := &generator{mod: mod, out: &ir.Module{Name: mod.Name}}
	g.emitGlobals()
	for _, fn := range mod.Funcs {
		if fn.Decl == nil || fn.Decl.Body == nil {
			if fn.Sym.Extern {
				g.out.ExternFuncs = append(g.out.ExternFuncs, fn.Sym.QualName)
			}
			continue
		}
		f, err := g.genFunc(fn)
		if err != nil {
			return nil, err
		}
		g.out.Funcs = append(g.out.Funcs, f)
	}
	return g.out, nil
}

type generator struct {
	mod *sem.Module
	out *ir.Module

	// buf holds the instructions of the function being generated in
	// emission order, which interleaves blocks, and blockOf the block each
	// belongs to. Once the function is complete, fill moves them into
	// their blocks; both are reused from function to function.
	buf     []ir.Instr
	blockOf []int32
	counts  []int
}

func (g *generator) emitGlobals() {
	add := func(s *sem.Symbol) {
		g.out.Globals = append(g.out.Globals, &ir.Global{
			Name:      s.QualName,
			Module:    s.Module,
			Size:      int32(s.Type.Size()),
			Init:      s.Init,
			Relocs:    convertRelocs(s.Relocs),
			Defined:   !s.Extern,
			Static:    s.Static,
			AddrTaken: s.AddrTaken,
			Scalar:    types.IsScalar(s.Type),
		})
	}
	for _, s := range g.mod.Globals {
		add(s)
	}
	for _, s := range g.mod.Strings {
		add(s)
	}
}

func convertRelocs(rs []sem.InitReloc) []ir.Reloc {
	var out []ir.Reloc
	for _, r := range rs {
		out = append(out, ir.Reloc{Offset: int32(r.Offset), Target: r.Target, Addend: int32(r.Addend)})
	}
	return out
}

// ----------------------------------------------------------------------------
// Function generation

// lvKind discriminates lvalue flavours.
type lvKind int

const (
	lvReg lvKind = iota // register-allocated scalar local
	lvMem               // memory reference
)

type lvalue struct {
	kind lvKind
	reg  ir.Reg
	mem  ir.MemRef
}

type loopCtx struct {
	breakTo    int
	continueTo int
}

type fgen struct {
	g   *generator
	fn  *sem.Function
	f   *ir.Func
	cur *ir.Block

	// regOf maps register-allocated locals/params to their VR.
	regOf map[*sem.Symbol]ir.Reg
	// frameOf maps memory-resident locals to frame offsets.
	frameOf map[*sem.Symbol]int32

	loops []loopCtx
	depth int
	errs  []error
}

func (g *generator) genFunc(fn *sem.Function) (*ir.Func, error) {
	fg := &fgen{
		g:  g,
		fn: fn,
		f: &ir.Func{
			Name:       fn.Sym.QualName,
			Module:     fn.Sym.Module,
			Static:     fn.Sym.Static,
			NParams:    len(fn.Params),
			ResultVoid: fn.FType.Result == types.Void,
		},
		regOf:   make(map[*sem.Symbol]ir.Reg),
		frameOf: make(map[*sem.Symbol]int32),
	}
	entry := fg.newBlock()
	fg.cur = entry

	for _, p := range fn.Params {
		r := fg.f.NewReg()
		fg.f.Params = append(fg.f.Params, r)
		if p.AddrTaken {
			// Escaped parameter: give it a frame home and store the
			// incoming value there.
			off := fg.allocFrame(p.Type)
			fg.frameOf[p] = off
			fg.emit(ir.Instr{Op: ir.Store, A: r, Mem: fg.frameRef(p.Type, off, true)})
		} else {
			fg.regOf[p] = r
		}
	}

	fg.genBlockStmts(fn.Decl.Body)

	// Fall off the end: synthesize a return (0 for int functions, which is
	// what C milieu code expects from main-style functions).
	if fg.cur != nil {
		if fg.f.ResultVoid {
			fg.cur.Term = ir.Term{Kind: ir.TermReturn}
		} else {
			z := fg.constReg(0)
			fg.cur.Term = ir.Term{Kind: ir.TermReturn, Val: z, HasVal: true}
		}
	}

	g.fill(fg.f)
	fg.f.Recompute()
	if err := fg.f.Validate(); err != nil {
		return nil, fmt.Errorf("irgen internal error: %w", err)
	}
	if len(fg.errs) > 0 {
		return nil, fg.errs[0]
	}
	return fg.f, nil
}

func (fg *fgen) errorf(pos token.Pos, format string, args ...interface{}) {
	fg.errs = append(fg.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (fg *fgen) newBlock() *ir.Block {
	b := &ir.Block{ID: len(fg.f.Blocks), LoopDepth: fg.depth}
	fg.f.Blocks = append(fg.f.Blocks, b)
	return b
}

// emit appends an instruction to the current block. Emission after a block
// has been terminated (unreachable code) is dropped.
func (fg *fgen) emit(in ir.Instr) {
	if fg.cur == nil {
		return
	}
	fg.g.buf = append(fg.g.buf, in)
	fg.g.blockOf = append(fg.g.blockOf, int32(fg.cur.ID))
}

// fill moves the emitted instructions into f's blocks: one slab for the
// function, each block's share capped at its length, so a pass that
// appends to a block copies it out rather than overwrite the next.
func (g *generator) fill(f *ir.Func) {
	counts := g.counts[:0]
	for range f.Blocks {
		counts = append(counts, 0)
	}
	for _, id := range g.blockOf {
		counts[id]++
	}
	slab := make([]ir.Instr, len(g.buf))
	off := 0
	for i, b := range f.Blocks {
		if n := counts[i]; n > 0 {
			b.Instrs = slab[off : off : off+n]
			off += n
		}
	}
	for i, id := range g.blockOf {
		b := f.Blocks[id]
		b.Instrs = append(b.Instrs, g.buf[i])
	}
	g.buf, g.blockOf, g.counts = g.buf[:0], g.blockOf[:0], counts
}

// seal terminates the current block and switches to next (which may be nil
// to mark unreachable code).
func (fg *fgen) seal(t ir.Term, next *ir.Block) {
	if fg.cur != nil {
		fg.cur.Term = t
	}
	fg.cur = next
}

func (fg *fgen) constReg(v int64) ir.Reg {
	r := fg.f.NewReg()
	fg.emit(ir.Instr{Op: ir.Const, Dst: r, Imm: v})
	return r
}

func (fg *fgen) allocFrame(t types.Type) int32 {
	a := int32(types.AlignOf(t))
	off := (fg.f.FrameSize + a - 1) / a * a
	fg.f.FrameSize = off + int32(t.Size())
	return off
}

func (fg *fgen) frameRef(t types.Type, off int32, scalar bool) ir.MemRef {
	return ir.MemRef{
		Kind: ir.MemFrame, Off: off,
		Size:      accessSize(t),
		Singleton: scalar && types.IsScalar(t),
	}
}

func accessSize(t types.Type) uint8 {
	switch t.Size() {
	case 1:
		return 1
	case 2:
		return 2
	default:
		return 4
	}
}

// ----------------------------------------------------------------------------
// Statements

func (fg *fgen) genStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.Block:
		fg.genBlockStmts(s)
	case *ast.Empty:
	case *ast.ExprStmt:
		fg.genExprForEffect(s.X)
	case *ast.LocalDecl:
		fg.genLocalDecl(s)
	case *ast.If:
		fg.genIf(s)
	case *ast.While:
		fg.genWhile(s)
	case *ast.DoWhile:
		fg.genDoWhile(s)
	case *ast.For:
		fg.genFor(s)
	case *ast.Return:
		fg.genReturn(s)
	case *ast.Break:
		if len(fg.loops) == 0 {
			fg.errorf(s.P, "break outside loop")
			return
		}
		fg.seal(ir.Term{Kind: ir.TermJump, True: fg.loops[len(fg.loops)-1].breakTo}, nil)
	case *ast.Continue:
		if len(fg.loops) == 0 {
			fg.errorf(s.P, "continue outside loop")
			return
		}
		fg.seal(ir.Term{Kind: ir.TermJump, True: fg.loops[len(fg.loops)-1].continueTo}, nil)
	}
}

func (fg *fgen) genBlockStmts(b *ast.Block) {
	for _, s := range b.Stmts {
		fg.genStmt(s)
	}
}

func (fg *fgen) genLocalDecl(s *ast.LocalDecl) {
	for _, item := range s.Items {
		sym := fg.findLocalSym(item.Declarator.Name)
		if sym == nil {
			continue // sem already diagnosed
		}
		t := sym.Type
		if types.IsScalar(t) && !sym.AddrTaken {
			r := fg.f.NewReg()
			fg.regOf[sym] = r
			if item.Init != nil {
				v := fg.genExpr(item.Init)
				fg.emit(ir.Instr{Op: ir.Copy, Dst: r, A: v})
			} else {
				// Define the register so later reads are never undefined.
				fg.emit(ir.Instr{Op: ir.Const, Dst: r, Imm: 0})
			}
			continue
		}
		off := fg.allocFrame(t)
		fg.frameOf[sym] = off
		switch tt := t.(type) {
		case *types.Array:
			fg.initLocalArray(sym, tt, off, item)
		case *types.Struct:
			// Struct locals start uninitialized, as in C.
			if item.Init != nil || len(item.InitList) > 0 {
				fg.errorf(item.Declarator.P, "struct initializers on locals are not supported")
			}
		default:
			if item.Init != nil {
				v := fg.genExpr(item.Init)
				fg.emit(ir.Instr{Op: ir.Store, A: v, Mem: fg.frameRef(t, off, true)})
			}
		}
	}
}

func (fg *fgen) initLocalArray(sym *sem.Symbol, arr *types.Array, off int32, item *ast.DeclItem) {
	esz := int32(arr.Elem.Size())
	if s, ok := item.Init.(*ast.StrLit); ok && arr.Elem == types.Char {
		for i := 0; i <= len(s.Value) && i < arr.Len; i++ {
			var ch int64
			if i < len(s.Value) {
				ch = int64(s.Value[i])
			}
			v := fg.constReg(ch)
			fg.emit(ir.Instr{Op: ir.Store, A: v, Mem: ir.MemRef{Kind: ir.MemFrame, Off: off + int32(i), Size: 1}})
		}
		return
	}
	for i, e := range item.InitList {
		if i >= arr.Len {
			fg.errorf(e.Pos(), "too many initializers for %s", sym.Name)
			break
		}
		v := fg.genExpr(e)
		fg.emit(ir.Instr{Op: ir.Store, A: v, Mem: ir.MemRef{
			Kind: ir.MemFrame, Off: off + int32(i)*esz, Size: accessSize(arr.Elem),
		}})
	}
}

// findLocalSym resolves a just-declared local by searching the function's
// local list from the back (sem appends in declaration order).
func (fg *fgen) findLocalSym(name string) *sem.Symbol {
	for i := len(fg.fn.Locals) - 1; i >= 0; i-- {
		s := fg.fn.Locals[i]
		if s.Name != name {
			continue
		}
		if _, seen := fg.regOf[s]; seen {
			continue
		}
		if _, seen := fg.frameOf[s]; seen {
			continue
		}
		return s
	}
	return nil
}

func (fg *fgen) genIf(s *ast.If) {
	thenB := fg.newBlock()
	var elseB *ir.Block
	join := fg.newBlock()
	if s.Else != nil {
		elseB = fg.newBlock()
	} else {
		elseB = join
	}
	fg.genCond(s.Cond, thenB.ID, elseB.ID)

	fg.cur = thenB
	fg.genStmt(s.Then)
	fg.seal(ir.Term{Kind: ir.TermJump, True: join.ID}, nil)

	if s.Else != nil {
		fg.cur = elseB
		fg.genStmt(s.Else)
		fg.seal(ir.Term{Kind: ir.TermJump, True: join.ID}, nil)
	}
	fg.cur = join
}

func (fg *fgen) genWhile(s *ast.While) {
	head := fg.newBlock()
	fg.seal(ir.Term{Kind: ir.TermJump, True: head.ID}, head)
	fg.depth++
	body := fg.newBlock()
	fg.depth--
	exit := fg.newBlock()
	head.LoopDepth = fg.depth + 1

	fg.cur = head
	fg.depth++
	fg.genCond(s.Cond, body.ID, exit.ID)

	fg.loops = append(fg.loops, loopCtx{breakTo: exit.ID, continueTo: head.ID})
	fg.cur = body
	fg.genStmt(s.Body)
	fg.seal(ir.Term{Kind: ir.TermJump, True: head.ID}, nil)
	fg.loops = fg.loops[:len(fg.loops)-1]
	fg.depth--

	fg.cur = exit
}

func (fg *fgen) genDoWhile(s *ast.DoWhile) {
	body := fg.newBlock()
	fg.seal(ir.Term{Kind: ir.TermJump, True: body.ID}, body)
	fg.depth++
	body.LoopDepth = fg.depth
	cond := fg.newBlock()
	cond.LoopDepth = fg.depth
	fg.depth--
	exit := fg.newBlock()

	fg.loops = append(fg.loops, loopCtx{breakTo: exit.ID, continueTo: cond.ID})
	fg.cur = body
	fg.depth++
	fg.genStmt(s.Body)
	fg.seal(ir.Term{Kind: ir.TermJump, True: cond.ID}, cond)
	fg.genCond(s.Cond, body.ID, exit.ID)
	fg.depth--
	fg.loops = fg.loops[:len(fg.loops)-1]

	fg.cur = exit
}

func (fg *fgen) genFor(s *ast.For) {
	if s.Init != nil {
		fg.genStmt(s.Init)
	}
	head := fg.newBlock()
	fg.seal(ir.Term{Kind: ir.TermJump, True: head.ID}, head)
	fg.depth++
	head.LoopDepth = fg.depth
	body := fg.newBlock()
	post := fg.newBlock()
	fg.depth--
	exit := fg.newBlock()

	fg.cur = head
	fg.depth++
	if s.Cond != nil {
		fg.genCond(s.Cond, body.ID, exit.ID)
	} else {
		fg.seal(ir.Term{Kind: ir.TermJump, True: body.ID}, nil)
	}

	fg.loops = append(fg.loops, loopCtx{breakTo: exit.ID, continueTo: post.ID})
	fg.cur = body
	fg.genStmt(s.Body)
	fg.seal(ir.Term{Kind: ir.TermJump, True: post.ID}, post)
	fg.loops = fg.loops[:len(fg.loops)-1]

	if s.Post != nil {
		fg.genExprForEffect(s.Post)
	}
	fg.seal(ir.Term{Kind: ir.TermJump, True: head.ID}, nil)
	fg.depth--

	fg.cur = exit
}

func (fg *fgen) genReturn(s *ast.Return) {
	if s.X == nil {
		fg.seal(ir.Term{Kind: ir.TermReturn}, nil)
		return
	}
	v := fg.genExpr(s.X)
	fg.seal(ir.Term{Kind: ir.TermReturn, Val: v, HasVal: true}, nil)
}

// genCond lowers a boolean expression directly to control flow, giving
// short-circuit && and || without materializing intermediate values.
func (fg *fgen) genCond(e ast.Expr, trueB, falseB int) {
	switch e := e.(type) {
	case *ast.Binary:
		switch e.Op {
		case token.AndAnd:
			mid := fg.newBlock()
			fg.genCond(e.X, mid.ID, falseB)
			fg.cur = mid
			fg.genCond(e.Y, trueB, falseB)
			return
		case token.OrOr:
			mid := fg.newBlock()
			fg.genCond(e.X, trueB, mid.ID)
			fg.cur = mid
			fg.genCond(e.Y, trueB, falseB)
			return
		}
	case *ast.Unary:
		if e.Op == token.Not {
			fg.genCond(e.X, falseB, trueB)
			return
		}
	}
	v := fg.genExpr(e)
	fg.seal(ir.Term{Kind: ir.TermBranch, Cond: v, True: trueB, False: falseB}, nil)
}
