package ir

import (
	"fmt"
	"sort"

	"ipra/internal/wire"
)

// AppendModule encodes m into an in-progress wire body, so composite
// artifacts (the cache entry format) can embed a module without nested
// framing and share one string table with their other fields.
func AppendModule(e *wire.Encoder, m *Module) {
	e.Str(m.Name)
	e.U(uint64(len(m.Funcs)))
	for _, f := range m.Funcs {
		appendFunc(e, f)
	}
	e.U(uint64(len(m.Globals)))
	for _, g := range m.Globals {
		appendGlobal(e, g)
	}
	e.Strs(m.ExternFuncs)
}

func appendFunc(e *wire.Encoder, f *Func) {
	e.Str(f.Name)
	e.Str(f.Module)
	e.Bool(f.Static)
	e.U(uint64(f.NParams))
	appendRegs(e, f.Params)
	e.Bool(f.ResultVoid)
	e.I(int64(f.NextReg))
	e.I(int64(f.FrameSize))
	// Pinned registers in ascending register order: maps must never leak
	// iteration order into the bytes.
	e.U(uint64(len(f.Pinned)))
	if len(f.Pinned) > 0 {
		regs := make([]int, 0, len(f.Pinned))
		for r := range f.Pinned {
			regs = append(regs, int(r))
		}
		sort.Ints(regs)
		for _, r := range regs {
			e.I(int64(r))
			e.Byte(f.Pinned[Reg(r)])
		}
	}
	e.U(uint64(len(f.Blocks)))
	for _, b := range f.Blocks {
		appendBlock(e, b)
	}
}

func appendBlock(e *wire.Encoder, b *Block) {
	e.U(uint64(b.ID))
	e.U(uint64(b.LoopDepth))
	e.U(uint64(len(b.Instrs)))
	for i := range b.Instrs {
		appendInstr(e, &b.Instrs[i])
	}
	e.U(uint64(b.Term.Kind))
	e.I(int64(b.Term.Cond))
	e.I(int64(b.Term.True))
	e.I(int64(b.Term.False))
	e.I(int64(b.Term.Val))
	e.Bool(b.Term.HasVal)
	e.Ints(b.Preds)
	e.Ints(b.Succs)
}

func appendInstr(e *wire.Encoder, in *Instr) {
	e.U(uint64(in.Op))
	e.I(int64(in.Dst))
	e.I(int64(in.A))
	e.I(int64(in.B))
	e.I(in.Imm)
	e.U(uint64(in.Mem.Kind))
	e.Str(in.Mem.Sym)
	e.I(int64(in.Mem.Base))
	e.I(int64(in.Mem.Off))
	e.Byte(in.Mem.Size)
	e.Bool(in.Mem.Singleton)
	e.Str(in.Callee)
	e.Bool(in.IndirectCall)
	appendRegs(e, in.Args)
	e.Bool(in.ResultVoid)
}

func appendGlobal(e *wire.Encoder, g *Global) {
	e.Str(g.Name)
	e.Str(g.Module)
	e.I(int64(g.Size))
	// Init's nil/non-nil distinction is meaningful (nil marks an extern
	// declaration), so it is encoded explicitly.
	e.Bool(g.Init != nil)
	if g.Init != nil {
		e.Bytes(g.Init)
	}
	e.U(uint64(len(g.Relocs)))
	for _, r := range g.Relocs {
		e.I(int64(r.Offset))
		e.Str(r.Target)
		e.I(int64(r.Addend))
	}
	e.Bool(g.Defined)
	e.Bool(g.Static)
	e.Bool(g.AddrTaken)
	e.Bool(g.Scalar)
}

func appendRegs(e *wire.Encoder, rs []Reg) {
	e.U(uint64(len(rs)))
	for _, r := range rs {
		e.I(int64(r))
	}
}

// ReadModule decodes a module from an in-progress wire body (the inverse
// of AppendModule). Errors are reported through the decoder's sticky
// error; the caller checks Finish (or Err) afterward.
func ReadModule(d *wire.Decoder) *Module {
	m := &Module{Name: d.Str()}
	n := d.Count(1)
	var buf decodeBuf
	for i := 0; i < n; i++ {
		m.Funcs = append(m.Funcs, readFunc(d, &buf))
	}
	n = d.Count(1)
	for i := 0; i < n; i++ {
		m.Globals = append(m.Globals, readGlobal(d))
	}
	m.ExternFuncs = d.Strs()
	return m
}

// decodeBuf holds one function's instructions, registers and CFG edges as
// they are decoded, block after block; the wire format gives each block's
// counts only as it reaches the block. readFunc then copies them into
// exactly sized slabs, and ReadModule reuses the buffer for the next
// function.
type decodeBuf struct {
	instrs []Instr
	regs   []Reg
	edges  []int
}

func readFunc(d *wire.Decoder, buf *decodeBuf) *Func {
	f := &Func{
		Name:    d.Str(),
		Module:  d.Str(),
		Static:  d.Bool(),
		NParams: int(d.U()),
	}
	buf.instrs, buf.regs, buf.edges = buf.instrs[:0], buf.regs[:0], buf.edges[:0]
	// Until the slabs are carved, every slice below views the buffer,
	// whose arrays may move as it grows: only their lengths are used.
	f.Params = buf.readRegs(d)
	f.ResultVoid = d.Bool()
	f.NextReg = Reg(d.I())
	f.FrameSize = int32(d.I())
	if n := d.Count(2); n > 0 {
		f.Pinned = make(map[Reg]uint8, n)
		for i := 0; i < n; i++ {
			r := Reg(d.I())
			f.Pinned[r] = d.Byte()
		}
	}
	n := d.Count(1)
	blocks := make([]Block, n)
	f.Blocks = make([]*Block, n)
	for i := range blocks {
		b := &blocks[i]
		f.Blocks[i] = b
		b.ID = int(d.U())
		b.LoopDepth = int(d.U())
		if ni := d.Count(1); ni > 0 {
			start := len(buf.instrs)
			for k := 0; k < ni; k++ {
				buf.instrs = append(buf.instrs, Instr{})
				buf.readInstr(d, &buf.instrs[len(buf.instrs)-1])
			}
			b.Instrs = buf.instrs[start:]
		}
		b.Term.Kind = TermKind(d.U())
		b.Term.Cond = Reg(d.I())
		b.Term.True = int(d.I())
		b.Term.False = int(d.I())
		b.Term.Val = Reg(d.I())
		b.Term.HasVal = d.Bool()
		b.Preds = buf.readInts(d)
		b.Succs = buf.readInts(d)
	}
	s := newSlabs(len(buf.instrs), len(buf.regs), len(buf.edges))
	copy(s.instrs, buf.instrs)
	copy(s.regs, buf.regs)
	copy(s.edges, buf.edges)
	// The buffer holds the parameters, then each call's arguments in
	// instruction order, then each block's predecessors and successors
	// in block order: carve them in that order.
	f.Params = carve(&s.regs, len(f.Params))
	for i := range s.instrs {
		if in := &s.instrs[i]; in.Args != nil {
			in.Args = carve(&s.regs, len(in.Args))
		}
	}
	for i := range blocks {
		b := &blocks[i]
		b.Instrs = carve(&s.instrs, len(b.Instrs))
		b.Preds = carve(&s.edges, len(b.Preds))
		b.Succs = carve(&s.edges, len(b.Succs))
	}
	return f
}

func (buf *decodeBuf) readInstr(d *wire.Decoder, in *Instr) {
	if op := d.U(); op <= uint64(LastOp) {
		in.Op = Op(op)
	} else {
		d.Fail(fmt.Sprintf("instruction operation %d out of range", op))
	}
	in.Dst = Reg(d.I())
	in.A = Reg(d.I())
	in.B = Reg(d.I())
	in.Imm = d.I()
	if kind := d.U(); kind <= uint64(LastMemKind) {
		in.Mem.Kind = MemKind(kind)
	} else {
		d.Fail(fmt.Sprintf("memory reference kind %d out of range", kind))
	}
	in.Mem.Sym = d.Str()
	in.Mem.Base = Reg(d.I())
	in.Mem.Off = int32(d.I())
	in.Mem.Size = d.Byte()
	in.Mem.Singleton = d.Bool()
	in.Callee = d.Str()
	in.IndirectCall = d.Bool()
	in.Args = buf.readRegs(d)
	in.ResultVoid = d.Bool()
}

// readRegs appends a register list to the buffer and returns its view,
// nil when empty.
func (buf *decodeBuf) readRegs(d *wire.Decoder) []Reg {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	start := len(buf.regs)
	for i := 0; i < n; i++ {
		buf.regs = append(buf.regs, Reg(d.I()))
	}
	return buf.regs[start:]
}

// readInts appends a list of block IDs to the buffer and returns its
// view, nil when empty.
func (buf *decodeBuf) readInts(d *wire.Decoder) []int {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	start := len(buf.edges)
	for i := 0; i < n; i++ {
		buf.edges = append(buf.edges, int(d.U()))
	}
	return buf.edges[start:]
}

func readGlobal(d *wire.Decoder) *Global {
	g := &Global{
		Name:   d.Str(),
		Module: d.Str(),
		Size:   int32(d.I()),
	}
	if d.Bool() {
		g.Init = d.Bytes()
		if g.Init == nil {
			g.Init = []byte{}
		}
	}
	if n := d.Count(3); n > 0 {
		g.Relocs = make([]Reloc, n)
		for i := range g.Relocs {
			g.Relocs[i] = Reloc{
				Offset: int32(d.I()),
				Target: d.Str(),
				Addend: int32(d.I()),
			}
		}
	}
	g.Defined = d.Bool()
	g.Static = d.Bool()
	g.AddrTaken = d.Bool()
	g.Scalar = d.Bool()
	return g
}

// Clone deep-copies a module with a direct structural copy. The optimizer
// mutates IR in place, and the driver compiles the same phase-1 output
// under several configurations, so each compilation works on its own copy.
func (m *Module) Clone() *Module {
	out := &Module{Name: m.Name}
	if m.Funcs != nil {
		out.Funcs = make([]*Func, len(m.Funcs))
		for i, f := range m.Funcs {
			out.Funcs[i] = f.Clone()
		}
	}
	if m.Globals != nil {
		out.Globals = make([]*Global, len(m.Globals))
		for i, g := range m.Globals {
			cp := *g
			cp.Init = append([]byte(nil), g.Init...)
			cp.Relocs = append([]Reloc(nil), g.Relocs...)
			out.Globals[i] = &cp
		}
	}
	out.ExternFuncs = append([]string(nil), m.ExternFuncs...)
	return out
}

// Clone deep-copies one function the way Module.Clone copies each of its
// functions, for a caller that optimizes some functions of a module and
// not others.
func (f *Func) Clone() *Func {
	cp := *f
	if f.Pinned != nil {
		cp.Pinned = make(map[Reg]uint8, len(f.Pinned))
		for r, p := range f.Pinned {
			cp.Pinned[r] = p
		}
	}
	nInstrs, nRegs, nEdges := 0, len(f.Params), 0
	for _, b := range f.Blocks {
		nInstrs += len(b.Instrs)
		nEdges += len(b.Preds) + len(b.Succs)
		for i := range b.Instrs {
			nRegs += len(b.Instrs[i].Args)
		}
	}
	s := newSlabs(nInstrs, nRegs, nEdges)
	cp.Params = carveCopy(&s.regs, f.Params)
	if f.Blocks != nil {
		blocks := make([]Block, len(f.Blocks))
		cp.Blocks = make([]*Block, len(f.Blocks))
		for i, b := range f.Blocks {
			nb := &blocks[i]
			*nb = *b
			nb.Instrs = carveCopy(&s.instrs, b.Instrs)
			for j := range nb.Instrs {
				if in := &nb.Instrs[j]; in.Args != nil {
					in.Args = carveCopy(&s.regs, in.Args)
				}
			}
			nb.Preds = carveCopy(&s.edges, b.Preds)
			nb.Succs = carveCopy(&s.edges, b.Succs)
			cp.Blocks[i] = nb
		}
	}
	return &cp
}

// slabs is one function's storage in three allocations: its instructions,
// its registers (parameters and call arguments) and its CFG edges (every
// block's predecessors and successors). Clone and ReadModule carve each
// slice a function holds from them, with its capacity capped at its
// length, so an append to one slice copies it out instead of writing over
// the next.
type slabs struct {
	instrs []Instr
	regs   []Reg
	edges  []int
}

func newSlabs(instrs, regs, edges int) slabs {
	return slabs{make([]Instr, instrs), make([]Reg, regs), make([]int, edges)}
}

// carve returns the next n elements of *slab, capped at n, and moves
// *slab past them; nil when n is 0.
func carve[T any](slab *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// carveCopy carves a copy of src from *slab; nil when src is empty.
func carveCopy[T any](slab *[]T, src []T) []T {
	out := carve(slab, len(src))
	copy(out, src)
	return out
}
