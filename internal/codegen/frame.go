package codegen

import (
	"fmt"

	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/regs"
)

// Compile translates an optimized IR module into a PARV object under the
// program database directives: Data's symbols, then CompileFunc of every
// function in module order.
func Compile(mod *ir.Module, db *pdb.Database) (*parv.Object, error) {
	obj := &parv.Object{Module: mod.Name, Globals: Data(mod)}
	for _, f := range mod.Funcs {
		of, err := CompileFunc(f, mod, db)
		if err != nil {
			return nil, err
		}
		obj.Funcs = append(obj.Funcs, of)
	}
	return obj, nil
}

// Data returns the data symbols of mod's object: one per global the
// module declares, in declaration order, with the initial image of the
// ones it defines. It reads no directive.
func Data(mod *ir.Module) []*parv.DataSym {
	var syms []*parv.DataSym
	for _, g := range mod.Globals {
		ds := &parv.DataSym{Name: g.Name, Size: g.Size, Defined: g.Defined}
		if g.Defined {
			ds.Init = make([]byte, g.Size)
			copy(ds.Init, g.Init)
			for _, r := range g.Relocs {
				ds.DataRelocs = append(ds.DataRelocs, parv.DataReloc{
					Offset: r.Offset, Target: r.Target, Addend: r.Addend,
				})
			}
		}
		syms = append(syms, ds)
	}
	return syms
}

// CompileFunc translates one optimized function of mod into its object
// code under the program database directives. It reads f, mod's globals,
// f's own directives and, through clobberOf, the clobber sets of f's
// direct callees: exactly what pdb's phase-2 keys cover for f. Keep the
// two in step.
func CompileFunc(f *ir.Func, mod *ir.Module, db *pdb.Database) (*parv.ObjFunc, error) {
	dir := db.Lookup(f.Name)
	lf, err := lower(f, mod, dir)
	if err != nil {
		return nil, err
	}
	// Per-callee clobber sets (the §7.6.2 caller-saves preallocation);
	// zero means "unknown: assume the worst case".
	clobberOf := func(callee string) regs.Set {
		d := db.Lookup(callee)
		if d.HasClobber {
			return d.ClobberAtCalls
		}
		return 0
	}
	res, err := allocate(lf, dir, clobberOf)
	if err != nil {
		return nil, err
	}
	sizeOf := func(name string) uint8 {
		if g := mod.GlobalByName(name); g != nil && (g.Size == 1 || g.Size == 2) {
			return uint8(g.Size)
		}
		return 4
	}
	return emit(lf, dir, res, sizeOf)
}

// emit lays out prologue, body, and epilogue, resolves intra-function
// branches, and produces the relocatable object function. sizeOf reports
// the access width of a promoted global (chars load/store a single byte).
func emit(f *lfunc, dir *pdb.ProcDirectives, res *allocResult, sizeOf func(string) uint8) (*parv.ObjFunc, error) {
	// ---- Which registers must be saved in the prologue?
	saved := res.usedCallee
	if dir.IsClusterRoot {
		// "All registers in the MSPILL set at a cluster root node must be
		// saved on entry and restored on exit, regardless of whether they
		// are actually used inside that procedure" (§4.2.3).
		saved = saved.Union(dir.MSpill)
	} else {
		saved = saved.Union(res.usedMSpill)
	}
	// Web entry procedures overwrite the dedicated callee-saves register
	// with the promoted global: preserve the caller's value around it.
	var entryWebs []pdb.PromotedGlobal
	for _, p := range dir.Promoted {
		if p.IsEntry {
			saved = saved.Add(p.Reg)
			entryWebs = append(entryWebs, p)
		}
	}

	savedList := saved.Regs()
	saveRP := f.makesCalls

	// ---- Frame layout (stack grows down; SP stays put within the body):
	//   SP+0 .. outArgs-1            outgoing stack arguments
	//   SP+outArgs ..                locals (IR frame)
	//   .. + 4*spillSlots            register spill slots
	//   .. + 4*len(savedList)        saved callee-saves registers
	//   .. + 4 (if saveRP)           saved return pointer
	saveBase := f.outArgs + f.frameLocal + 4*res.spillSlots
	frameSize := saveBase + 4*int32(len(savedList))
	rpOff := frameSize
	if saveRP {
		frameSize += 4
	}
	frameSize = (frameSize + 7) &^ 7

	// Size the code and its relocations exactly: the prologue and
	// epilogue counts follow from the decisions above, the body's from
	// the blocks less their dropped fall-through branches.
	drop := make([]bool, len(f.blocks))
	prologue, epilogue := len(savedList)+len(entryWebs), len(savedList)+1
	if frameSize > 0 {
		prologue++
		epilogue++
	}
	if saveRP {
		prologue++
		epilogue++
	}
	nRelocs := len(entryWebs)
	for _, p := range entryWebs {
		if p.NeedStore {
			epilogue++
			nRelocs++
		}
	}
	body := 0
	for i, b := range f.blocks {
		body += len(b.instrs)
		// Decide which trailing unconditional branches fall through.
		if n := len(b.instrs); n > 0 {
			last := b.instrs[n-1]
			if last.op == parv.B && last.target == i+1 && i+1 < len(f.blocks) {
				drop[i] = true
				body--
			}
		}
		for j := range b.instrs {
			if b.instrs[j].hasRel {
				nRelocs++
			}
		}
	}
	code := make([]parv.Instr, 0, prologue+body+epilogue)
	var relocs []parv.Reloc
	if nRelocs > 0 {
		relocs = make([]parv.Reloc, 0, nRelocs)
	}

	add := func(in parv.Instr, rel *parv.Reloc) {
		if rel != nil {
			r := *rel
			r.Index = len(code)
			relocs = append(relocs, r)
		}
		code = append(code, in)
	}

	// ---- Prologue.
	if frameSize > 0 {
		add(parv.Instr{Op: parv.SUBI, Rd: parv.RegSP, Ra: parv.RegSP, Imm: frameSize}, nil)
	}
	for i, r := range savedList {
		add(parv.Instr{Op: parv.STW, Ra: parv.RegSP, Rb: r, Imm: saveBase + 4*int32(i), MemSize: 4}, nil)
	}
	if saveRP {
		add(parv.Instr{Op: parv.STW, Ra: parv.RegSP, Rb: parv.RegRP, Imm: rpOff, MemSize: 4}, nil)
	}
	// Web entry: load the promoted global into its dedicated register (§5).
	for _, p := range entryWebs {
		add(parv.Instr{Op: parv.LDW, Rd: p.Reg, Ra: parv.RegDP, MemSize: sizeOf(p.Name), Singleton: true},
			&parv.Reloc{Kind: parv.RelDataDisp, Sym: p.Name})
	}

	// ---- Body: compute block start offsets with fallthrough elimination.
	// First pass sizes each block.
	type layout struct {
		start int
	}
	las := make([]layout, len(f.blocks))
	pos := len(code)
	for i, b := range f.blocks {
		las[i].start = pos
		pos += len(b.instrs)
		if drop[i] {
			pos--
		}
	}
	epilogueStart := pos

	resolve := func(t int) int32 {
		if t == epilogueBlock {
			return int32(epilogueStart)
		}
		return int32(las[t].start)
	}

	for i, b := range f.blocks {
		n := len(b.instrs)
		for j := 0; j < n; j++ {
			if drop[i] && j == n-1 {
				continue
			}
			in := b.instrs[j]
			m, rel, err := materialize(&in, frameSize)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f.name, err)
			}
			switch in.op {
			case parv.B, parv.CB, parv.CBI:
				m.Target = resolve(in.target)
			}
			add(m, rel)
		}
	}
	if pos != len(code) {
		return nil, fmt.Errorf("%s: layout mismatch (%d != %d)", f.name, pos, len(code))
	}

	// ---- Epilogue.
	for _, p := range entryWebs {
		if p.NeedStore {
			add(parv.Instr{Op: parv.STW, Ra: parv.RegDP, Rb: p.Reg, MemSize: sizeOf(p.Name), Singleton: true},
				&parv.Reloc{Kind: parv.RelDataDisp, Sym: p.Name})
		}
	}
	for i, r := range savedList {
		add(parv.Instr{Op: parv.LDW, Rd: r, Ra: parv.RegSP, Imm: saveBase + 4*int32(i), MemSize: 4}, nil)
	}
	if saveRP {
		add(parv.Instr{Op: parv.LDW, Rd: parv.RegRP, Ra: parv.RegSP, Imm: rpOff, MemSize: 4}, nil)
	}
	if frameSize > 0 {
		add(parv.Instr{Op: parv.ADDI, Rd: parv.RegSP, Ra: parv.RegSP, Imm: frameSize}, nil)
	}
	add(parv.Instr{Op: parv.BV, Ra: parv.RegRP}, nil)

	return &parv.ObjFunc{Name: f.name, Code: code, Relocs: relocs}, nil
}

// materialize converts an allocated linstr to a parv.Instr, applying frame
// fixups, and returns the relocation if any.
func materialize(in *linstr, frameSize int32) (parv.Instr, *parv.Reloc, error) {
	p := func(v vreg) (uint8, error) {
		if !v.isPhys() {
			return 0, fmt.Errorf("unallocated register %s in %v", v, in.op)
		}
		return uint8(v), nil
	}
	rd, err := p(in.rd)
	if err != nil {
		return parv.Instr{}, nil, err
	}
	ra, err := p(in.ra)
	if err != nil {
		return parv.Instr{}, nil, err
	}
	rb, err := p(in.rb)
	if err != nil {
		return parv.Instr{}, nil, err
	}
	m := parv.Instr{
		Op: in.op, Rd: rd, Ra: ra, Rb: rb,
		Imm: in.imm, Cond: in.cond,
		MemSize: in.memSize, Singleton: in.singleton,
	}
	if in.fixup == fixIncomingArg {
		m.Imm = frameSize + 4*in.imm
	}
	var rel *parv.Reloc
	if in.hasRel {
		rel = &parv.Reloc{Kind: in.relKind, Sym: in.sym}
		if in.relKind == parv.RelDataAddr {
			rel.Addend = in.imm
			m.Imm = 0
		}
	}
	return m, rel, nil
}
