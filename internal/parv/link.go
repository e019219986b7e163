package parv

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Address space layout. PARV exposes a flat 32-bit space: data (globals,
// then stack) lives at DataBase, code addresses are TextBase+index. The
// page at 0 is unmapped so null pointer dereferences trap.
const (
	DataBase = 0x0001_0000
	TextBase = 0x4000_0000
)

// RelocKind identifies how a code relocation patches its instruction.
type RelocKind int

// Code relocation kinds.
const (
	RelCall     RelocKind = iota // BL: patch Target with the callee's text index
	RelFuncAddr                  // LDI: patch Imm with TextBase + entry
	RelDataAddr                  // LDI: patch Imm with the global's absolute address (+Addend)
	RelDataDisp                  // LDW/STW: patch Imm with the global's DP displacement (+Addend)
)

// Reloc is a code relocation within an object function.
type Reloc struct {
	Index  int // instruction index within the function
	Kind   RelocKind
	Sym    string
	Addend int32
}

// ObjFunc is one compiled function inside an object module.
type ObjFunc struct {
	Name   string
	Code   []Instr
	Relocs []Reloc
}

// DataSym is a global variable contributed or referenced by an object.
type DataSym struct {
	Name    string
	Size    int32
	Init    []byte // nil when not defined here
	Defined bool
	// DataRelocs patch address words inside Init at link time.
	DataRelocs []DataReloc
}

// DataReloc is an address word within a global's initializer.
type DataReloc struct {
	Offset int32
	Target string
	Addend int32
}

// Object is one compiled module, ready for linking.
type Object struct {
	Module  string
	Funcs   []*ObjFunc
	Globals []*DataSym
}

// FuncInfo describes a linked function's text range.
type FuncInfo struct {
	Name  string
	Start int // text index of the entry
	End   int // one past the last instruction
}

// Executable is a fully linked PARV program. Its functions partition the
// code in order, the entry is an instruction, and the data segment holds
// the initial image: Link builds it so and DecodeExecutable checks it.
type Executable struct {
	Code  []Instr
	Funcs []FuncInfo
	// FuncIdx maps a function name to its index in Funcs.
	FuncIdx map[string]int

	Data       []byte // initial image of the globals region
	GlobalAddr map[string]int32
	DataSize   int32 // total data memory (globals + heap gap + stack)

	Entry int // text index of main
}

// FuncOfPC returns the index (into Funcs) of the function containing the
// given text index, or -1.
func (e *Executable) FuncOfPC(pc int) int {
	for i, fi := range e.Funcs {
		if pc >= fi.Start && pc < fi.End {
			return i
		}
	}
	return -1
}

// check reports why the executable breaks the layout invariants above.
func (e *Executable) check() error {
	pc := 0
	for _, fi := range e.Funcs {
		if fi.Start != pc || fi.End < fi.Start || fi.End > len(e.Code) {
			return fmt.Errorf("function %s spans [%d,%d); want a range in [%d,%d]", fi.Name, fi.Start, fi.End, pc, len(e.Code))
		}
		pc = fi.End
	}
	if pc != len(e.Code) {
		return fmt.Errorf("functions cover %d of %d instructions", pc, len(e.Code))
	}
	if e.Entry < 0 || e.Entry >= len(e.Code) {
		return fmt.Errorf("entry %d is outside the code (%d instructions)", e.Entry, len(e.Code))
	}
	if int64(e.DataSize) < int64(len(e.Data)) {
		return fmt.Errorf("data size %d cannot hold the %d-byte data image", e.DataSize, len(e.Data))
	}
	return nil
}

// LinkConfig controls linking.
type LinkConfig struct {
	DataSize int32  // total data memory; 0 selects 8 MiB
	Entry    string // entry symbol; "" selects "main"
}

// Link combines object modules into an executable, resolving global
// addresses, call targets, and data relocations, and synthesizing the tiny
// runtime (putchar/putint/exit) for any of those left undefined.
func Link(objs []*Object, cfg LinkConfig) (*Executable, error) {
	if cfg.DataSize == 0 {
		cfg.DataSize = 8 << 20
	}
	if cfg.Entry == "" {
		cfg.Entry = "main"
	}
	nfuncs, ndefined := len(runtimeRoutines), 0
	for _, o := range objs {
		nfuncs += len(o.Funcs)
		for _, g := range o.Globals {
			if g.Defined {
				ndefined++
			}
		}
	}
	exe := &Executable{
		FuncIdx:    make(map[string]int, nfuncs),
		GlobalAddr: make(map[string]int32, ndefined),
		DataSize:   cfg.DataSize,
	}

	// ---- Lay out globals.
	type gdef struct {
		sym *DataSym
		mod string
	}
	defs := make(map[string]gdef, ndefined)
	order := make([]string, 0, ndefined)
	referenced := make(map[string]bool, ndefined)
	for _, o := range objs {
		for _, g := range o.Globals {
			referenced[g.Name] = true
			if !g.Defined {
				continue
			}
			if prev, dup := defs[g.Name]; dup {
				return nil, fmt.Errorf("link: global %s defined in both %s and %s", g.Name, prev.mod, o.Module)
			}
			defs[g.Name] = gdef{sym: g, mod: o.Module}
			order = append(order, g.Name)
		}
	}
	sort.Strings(order) // deterministic layout independent of module order
	addr := int32(0)
	for _, name := range order {
		g := defs[name].sym
		a := int32(4)
		if g.Size < 4 {
			a = g.Size
			if a == 0 {
				a = 1
			}
		}
		addr = (addr + a - 1) / a * a
		exe.GlobalAddr[name] = DataBase + addr
		addr += g.Size
	}
	for name := range referenced {
		if _, ok := defs[name]; !ok {
			return nil, fmt.Errorf("link: undefined global %s", name)
		}
	}
	dataLen := addr
	exe.Data = make([]byte, dataLen)
	for _, name := range order {
		g := defs[name].sym
		off := exe.GlobalAddr[name] - DataBase
		copy(exe.Data[off:off+g.Size], g.Init)
	}

	// ---- Collect functions in module order; FuncIdx numbers them as
	// the text lays them out. One pass over the code and data relocations
	// names the runtime routines the program uses, and those it does not
	// define follow its functions in runtimeRoutines order.
	forder := make([]*ObjFunc, 0, nfuncs)
	var used [len(runtimeRoutines)]bool
	for _, o := range objs {
		for _, f := range o.Funcs {
			if _, dup := exe.FuncIdx[f.Name]; dup {
				return nil, fmt.Errorf("link: function %s defined in both %s and %s", f.Name, definer(objs, f.Name), o.Module)
			}
			exe.FuncIdx[f.Name] = len(forder)
			forder = append(forder, f)
			for _, r := range f.Relocs {
				if k := runtimeRoutine(r.Sym); k >= 0 && (r.Kind == RelCall || r.Kind == RelFuncAddr) {
					used[k] = true
				}
			}
		}
		for _, g := range o.Globals {
			for _, dr := range g.DataRelocs {
				if k := runtimeRoutine(dr.Target); k >= 0 {
					used[k] = true
				}
			}
		}
	}
	for k, rt := range runtimeRoutines {
		if _, defined := exe.FuncIdx[rt.name]; used[k] && !defined {
			exe.FuncIdx[rt.name] = len(forder)
			forder = append(forder, &ObjFunc{Name: rt.name, Code: rt.code})
		}
	}

	// ---- Lay out text, rebasing function-local branch targets.
	size := 0
	for _, f := range forder {
		size += len(f.Code)
	}
	exe.Code = make([]Instr, 0, size)
	exe.Funcs = make([]FuncInfo, 0, len(forder))
	for _, f := range forder {
		start := len(exe.Code)
		exe.Code = append(exe.Code, f.Code...)
		for pc := start; pc < len(exe.Code); pc++ {
			switch exe.Code[pc].Op {
			case B, CB, CBI:
				exe.Code[pc].Target += int32(start)
			}
		}
		exe.Funcs = append(exe.Funcs, FuncInfo{Name: f.Name, Start: start, End: len(exe.Code)})
	}

	// ---- Apply code relocations.
	for i, f := range forder {
		base := exe.Funcs[i].Start
		for _, r := range f.Relocs {
			in := &exe.Code[base+r.Index]
			switch r.Kind {
			case RelCall:
				fi, ok := exe.FuncIdx[r.Sym]
				if !ok {
					return nil, fmt.Errorf("link: %s: undefined function %s", f.Name, r.Sym)
				}
				in.Target = int32(exe.Funcs[fi].Start)
				in.Sym = r.Sym
			case RelFuncAddr:
				fi, ok := exe.FuncIdx[r.Sym]
				if !ok {
					return nil, fmt.Errorf("link: %s: undefined function %s", f.Name, r.Sym)
				}
				in.Imm = int32(TextBase + exe.Funcs[fi].Start)
				in.Sym = r.Sym
			case RelDataAddr:
				a, ok := exe.GlobalAddr[r.Sym]
				if !ok {
					return nil, fmt.Errorf("link: %s: undefined global %s", f.Name, r.Sym)
				}
				in.Imm = a + r.Addend
				in.Sym = r.Sym
			case RelDataDisp:
				a, ok := exe.GlobalAddr[r.Sym]
				if !ok {
					return nil, fmt.Errorf("link: %s: undefined global %s", f.Name, r.Sym)
				}
				in.Imm += a - DataBase + r.Addend
				in.Sym = r.Sym
			}
		}
	}

	// ---- Apply data relocations.
	for _, name := range order {
		g := defs[name].sym
		base := exe.GlobalAddr[name] - DataBase
		for _, dr := range g.DataRelocs {
			var v int32
			if fi, ok := exe.FuncIdx[dr.Target]; ok {
				v = int32(TextBase + exe.Funcs[fi].Start)
			} else if a, ok := exe.GlobalAddr[dr.Target]; ok {
				v = a
			} else {
				return nil, fmt.Errorf("link: data reloc in %s: undefined symbol %s", name, dr.Target)
			}
			binary.LittleEndian.PutUint32(exe.Data[base+dr.Offset:], uint32(v+dr.Addend))
		}
	}

	entry, ok := exe.FuncIdx[cfg.Entry]
	if !ok {
		return nil, fmt.Errorf("link: undefined entry symbol %s", cfg.Entry)
	}
	exe.Entry = exe.Funcs[entry].Start
	if int64(dataLen)+0x10000 > int64(cfg.DataSize) {
		return nil, fmt.Errorf("link: globals (%d bytes) overflow data memory", dataLen)
	}
	return exe, nil
}

// definer returns the module of the first object that defines the named
// function.
func definer(objs []*Object, name string) string {
	for _, o := range objs {
		for _, f := range o.Funcs {
			if f.Name == name {
				return o.Module
			}
		}
	}
	return ""
}

// runtimeRoutines are the runtime service routines the linker can
// synthesize, in the order it lays them out. Each follows the standard
// linkage: argument in r26, result in r28, return via rp. Link copies
// their code into the executable and never writes it.
var runtimeRoutines = [...]struct {
	name string
	code []Instr
}{
	{"putchar", []Instr{
		{Op: SYS, Imm: SysPutchar},
		{Op: BV, Ra: RegRP},
	}},
	{"putint", []Instr{
		{Op: SYS, Imm: SysPutint},
		{Op: BV, Ra: RegRP},
	}},
	{"exit", []Instr{
		{Op: SYS, Imm: SysExit},
		{Op: BV, Ra: RegRP}, // unreachable
	}},
}

// runtimeRoutine returns the index in runtimeRoutines of the routine the
// symbol names, or -1.
func runtimeRoutine(sym string) int {
	for k := range runtimeRoutines {
		if runtimeRoutines[k].name == sym {
			return k
		}
	}
	return -1
}
