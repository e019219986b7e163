package ir

import (
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
	for i := 0; i < n; i++ {
		m.Funcs = append(m.Funcs, readFunc(d))
	}
	n = d.Count(1)
	for i := 0; i < n; i++ {
		m.Globals = append(m.Globals, readGlobal(d))
	}
	m.ExternFuncs = d.Strs()
	return m
}

func readFunc(d *wire.Decoder) *Func {
	f := &Func{
		Name:    d.Str(),
		Module:  d.Str(),
		Static:  d.Bool(),
		NParams: int(d.U()),
	}
	f.Params = readRegs(d)
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
	for i := 0; i < n; i++ {
		f.Blocks = append(f.Blocks, readBlock(d))
	}
	return f
}

func readBlock(d *wire.Decoder) *Block {
	b := &Block{
		ID:        int(d.U()),
		LoopDepth: int(d.U()),
	}
	n := d.Count(1)
	if n > 0 {
		b.Instrs = make([]Instr, n)
		for i := range b.Instrs {
			readInstr(d, &b.Instrs[i])
		}
	}
	b.Term.Kind = TermKind(d.U())
	b.Term.Cond = Reg(d.I())
	b.Term.True = int(d.I())
	b.Term.False = int(d.I())
	b.Term.Val = Reg(d.I())
	b.Term.HasVal = d.Bool()
	b.Preds = d.Ints()
	b.Succs = d.Ints()
	return b
}

func readInstr(d *wire.Decoder, in *Instr) {
	in.Op = Op(d.U())
	in.Dst = Reg(d.I())
	in.A = Reg(d.I())
	in.B = Reg(d.I())
	in.Imm = d.I()
	in.Mem.Kind = MemKind(d.U())
	in.Mem.Sym = d.Str()
	in.Mem.Base = Reg(d.I())
	in.Mem.Off = int32(d.I())
	in.Mem.Size = d.Byte()
	in.Mem.Singleton = d.Bool()
	in.Callee = d.Str()
	in.IndirectCall = d.Bool()
	in.Args = readRegs(d)
	in.ResultVoid = d.Bool()
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

func readRegs(d *wire.Decoder) []Reg {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]Reg, n)
	for i := range out {
		out[i] = Reg(d.I())
	}
	return out
}

// Clone deep-copies a module with a direct structural copy. The optimizer
// mutates IR in place, and the driver compiles the same phase-1 output
// under several configurations, so each compilation works on its own copy.
func (m *Module) Clone() *Module {
	out := &Module{Name: m.Name}
	if m.Funcs != nil {
		out.Funcs = make([]*Func, len(m.Funcs))
		for i, f := range m.Funcs {
			out.Funcs[i] = f.clone()
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

func (f *Func) clone() *Func {
	cp := *f
	cp.Params = append([]Reg(nil), f.Params...)
	if f.Pinned != nil {
		cp.Pinned = make(map[Reg]uint8, len(f.Pinned))
		for r, p := range f.Pinned {
			cp.Pinned[r] = p
		}
	}
	if f.Blocks != nil {
		cp.Blocks = make([]*Block, len(f.Blocks))
		for i, b := range f.Blocks {
			nb := *b
			nb.Instrs = append([]Instr(nil), b.Instrs...)
			for j := range nb.Instrs {
				if nb.Instrs[j].Args != nil {
					nb.Instrs[j].Args = append([]Reg(nil), nb.Instrs[j].Args...)
				}
			}
			nb.Preds = append([]int(nil), b.Preds...)
			nb.Succs = append([]int(nil), b.Succs...)
			cp.Blocks[i] = &nb
		}
	}
	return &cp
}
