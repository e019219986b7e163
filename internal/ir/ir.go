// Package ir defines the machine-independent intermediate representation
// exchanged between the two compiler phases.
//
// In the paper's organization (§2, Figure 1) the compiler first phase writes
// an intermediate representation of each module to a file, and the compiler
// second phase — which may run on modules in any order — reads it back and
// performs code generation under the program analyzer's register allocation
// directives. This package is that representation: non-SSA three-address
// code over virtual registers, organized into basic blocks.
package ir

import (
	"fmt"
	"strings"
)

// Reg is a virtual register number. Register 0 is "no register".
type Reg int32

// String renders a virtual register.
func (r Reg) String() string {
	if r == 0 {
		return "_"
	}
	return fmt.Sprintf("v%d", int32(r))
}

// Op is an IR operation.
type Op uint8

// IR operations.
const (
	Nop Op = iota

	Const // Dst = Imm
	Copy  // Dst = A

	// Integer arithmetic (32-bit, wrapping).
	Add // Dst = A + B
	Sub
	Mul
	Div // signed
	Rem // signed
	And
	Or
	Xor
	Shl // B masked to 5 bits
	Shr // arithmetic shift right
	Neg // Dst = -A
	Not // Dst = ^A

	// Comparisons produce 0 or 1.
	CmpEQ
	CmpNE
	CmpLT // signed
	CmpLE
	CmpGT
	CmpGE

	// Memory.
	Load  // Dst = mem[Mem]
	Store // mem[Mem] = A

	// Address formation.
	AddrGlobal // Dst = &global(Sym) + Imm
	AddrFrame  // Dst = &frame[Imm]

	Call // Dst = Callee(Args...) or (*A)(Args...) when IndirectCall

	// LastOp is the highest operation; a decoder rejects any above it.
	LastOp = Call
)

var opNames = [...]string{
	Nop: "nop", Const: "const", Copy: "copy",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr",
	Neg: "neg", Not: "not",
	CmpEQ: "cmpeq", CmpNE: "cmpne", CmpLT: "cmplt", CmpLE: "cmple",
	CmpGT: "cmpgt", CmpGE: "cmpge",
	Load: "load", Store: "store",
	AddrGlobal: "addrg", AddrFrame: "addrf",
	Call: "call",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsCommutative reports whether the binary op commutes.
func (o Op) IsCommutative() bool {
	switch o {
	case Add, Mul, And, Or, Xor, CmpEQ, CmpNE:
		return true
	}
	return false
}

// IsBinary reports whether the op takes two register operands A, B.
func (o Op) IsBinary() bool {
	switch o {
	case Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr,
		CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE:
		return true
	}
	return false
}

// MemKind classifies a memory reference.
type MemKind uint8

// Memory reference kinds.
const (
	MemNone   MemKind = iota
	MemGlobal         // named global variable (Sym, +Off for members/elements)
	MemFrame          // function frame slot at offset Off
	MemPtr            // through pointer register Base, +Off

	// LastMemKind is the highest kind; a decoder rejects any above it.
	LastMemKind = MemPtr
)

// MemRef describes the address and width of a Load or Store. Its fields
// are ordered by size, so it packs into 32 bytes.
type MemRef struct {
	Sym  string // qualified global name (MemGlobal)
	Base Reg    // pointer register (MemPtr)
	Off  int32
	Kind MemKind
	Size uint8 // access width in bytes: 1, 2, or 4

	// Singleton marks an access to a simple scalar variable of size 1/2/4 —
	// the accesses Table 5 of the paper counts. Array elements, struct
	// members, and pointer dereferences are not singletons (§6.3).
	Singleton bool
}

func (m MemRef) String() string {
	base := ""
	switch m.Kind {
	case MemGlobal:
		base = "@" + m.Sym
	case MemFrame:
		base = "frame"
	case MemPtr:
		base = m.Base.String()
	default:
		return "<none>"
	}
	s := fmt.Sprintf("[%s%+d].%d", base, m.Off, m.Size)
	if m.Singleton {
		s += "!"
	}
	return s
}

// Instr is one three-address instruction. Its fields are ordered by size,
// so it packs into 96 bytes on a 64-bit machine: every pass walks
// instructions by value or in slices, so their size is memory traffic.
type Instr struct {
	// Call fields (Callee is also AddrGlobal's symbol).
	Args   []Reg
	Callee string // qualified name for direct calls

	Mem MemRef
	Imm int64
	Dst Reg
	A   Reg
	B   Reg
	Op  Op

	IndirectCall bool // function address in A
	ResultVoid   bool // call has no result even though Dst may be 0
}

// Uses appends the registers read by the instruction to dst and returns it.
func (in *Instr) Uses(dst []Reg) []Reg {
	switch in.Op {
	case Const, AddrGlobal, AddrFrame, Nop:
	case Load:
		if in.Mem.Kind == MemPtr {
			dst = append(dst, in.Mem.Base)
		}
	case Store:
		dst = append(dst, in.A)
		if in.Mem.Kind == MemPtr {
			dst = append(dst, in.Mem.Base)
		}
	case Call:
		if in.IndirectCall {
			dst = append(dst, in.A)
		}
		dst = append(dst, in.Args...)
	case Copy, Neg, Not:
		dst = append(dst, in.A)
	default:
		if in.Op.IsBinary() {
			dst = append(dst, in.A, in.B)
		} else {
			dst = append(dst, in.A)
		}
	}
	return dst
}

// Def returns the register written by the instruction, or 0.
func (in *Instr) Def() Reg {
	switch in.Op {
	case Store, Nop:
		return 0
	case Call:
		return in.Dst // may be 0 for void calls
	default:
		return in.Dst
	}
}

// HasSideEffects reports whether the instruction must be preserved even if
// its result is unused.
func (in *Instr) HasSideEffects() bool {
	switch in.Op {
	case Store, Call:
		return true
	case Div, Rem:
		return true // may trap on divide-by-zero
	}
	return false
}

func (in *Instr) String() string {
	switch in.Op {
	case Nop:
		return "nop"
	case Const:
		return fmt.Sprintf("%s = const %d", in.Dst, in.Imm)
	case Copy:
		return fmt.Sprintf("%s = %s", in.Dst, in.A)
	case Neg, Not:
		return fmt.Sprintf("%s = %s %s", in.Dst, in.Op, in.A)
	case Load:
		return fmt.Sprintf("%s = load %s", in.Dst, in.Mem)
	case Store:
		return fmt.Sprintf("store %s, %s", in.Mem, in.A)
	case AddrGlobal:
		return fmt.Sprintf("%s = addrg @%s%+d", in.Dst, in.Callee, in.Imm)
	case AddrFrame:
		return fmt.Sprintf("%s = addrf %d", in.Dst, in.Imm)
	case Call:
		var args []string
		for _, a := range in.Args {
			args = append(args, a.String())
		}
		target := in.Callee
		if in.IndirectCall {
			target = "*" + in.A.String()
		}
		if in.Dst == 0 {
			return fmt.Sprintf("call %s(%s)", target, strings.Join(args, ", "))
		}
		return fmt.Sprintf("%s = call %s(%s)", in.Dst, target, strings.Join(args, ", "))
	default:
		if in.Op.IsBinary() {
			return fmt.Sprintf("%s = %s %s, %s", in.Dst, in.Op, in.A, in.B)
		}
		return fmt.Sprintf("%s = %s %s %s imm=%d", in.Dst, in.Op, in.A, in.B, in.Imm)
	}
}

// TermKind identifies the block terminator form.
type TermKind int

// Terminator kinds.
const (
	TermJump TermKind = iota
	TermBranch
	TermReturn
)

// Term is a block terminator.
type Term struct {
	Kind   TermKind
	Cond   Reg // TermBranch: branch to True if Cond != 0
	True   int // target block ID
	False  int
	Val    Reg  // TermReturn value
	HasVal bool // TermReturn returns a value
}

func (t Term) String() string {
	switch t.Kind {
	case TermJump:
		return fmt.Sprintf("jump b%d", t.True)
	case TermBranch:
		return fmt.Sprintf("branch %s ? b%d : b%d", t.Cond, t.True, t.False)
	case TermReturn:
		if t.HasVal {
			return fmt.Sprintf("ret %s", t.Val)
		}
		return "ret"
	}
	return "?"
}

// Block is a basic block.
type Block struct {
	ID     int
	Instrs []Instr
	Term   Term

	// LoopDepth is the syntactic loop nesting depth, used for the paper's
	// compile-time frequency heuristics (§3, §6): a reference or call at
	// depth d is weighted 10^d.
	LoopDepth int

	// Preds and Succs are filled by Func.Recompute.
	Preds []int
	Succs []int
}

// Func is one IR function.
type Func struct {
	Name   string // qualified (linker) name
	Module string
	Static bool

	NParams int
	Params  []Reg // virtual registers carrying the incoming parameters

	// ResultVoid is true for void functions.
	ResultVoid bool

	Blocks    []*Block // Blocks[0] is the entry
	NextReg   Reg      // next unused virtual register number
	FrameSize int32    // bytes of frame memory (arrays, structs, escaped locals)

	// Pinned maps virtual registers bound to specific physical registers.
	// The compiler second phase uses pinned registers for web-promoted
	// globals (§5): the register's value is shared with callees, so
	// writes to a pinned register are observable side effects and its
	// contents may change across calls.
	Pinned map[Reg]uint8
}

// Pin binds a fresh virtual register to physical register phys.
func (f *Func) Pin(phys uint8) Reg {
	r := f.NewReg()
	if f.Pinned == nil {
		f.Pinned = make(map[Reg]uint8)
	}
	f.Pinned[r] = phys
	return r
}

// IsPinned reports whether r is bound to a physical register.
func (f *Func) IsPinned(r Reg) bool {
	_, ok := f.Pinned[r]
	return ok
}

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	f.NextReg++
	return f.NextReg
}

// Block returns the block with the given ID (IDs index Blocks).
func (f *Func) Block(id int) *Block { return f.Blocks[id] }

// Recompute rebuilds predecessor/successor lists.
func (f *Func) Recompute() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
		b.Succs = b.Succs[:0]
	}
	for _, b := range f.Blocks {
		switch b.Term.Kind {
		case TermJump:
			b.Succs = append(b.Succs, b.Term.True)
		case TermBranch:
			b.Succs = append(b.Succs, b.Term.True)
			if b.Term.False != b.Term.True {
				b.Succs = append(b.Succs, b.Term.False)
			}
		}
		for _, s := range b.Succs {
			f.Blocks[s].Preds = append(f.Blocks[s].Preds, b.ID)
		}
	}
}

// String dumps the function in a readable form.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s (params=%d, frame=%d)\n", f.Name, f.NParams, f.FrameSize)
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "b%d: (depth %d)\n", blk.ID, blk.LoopDepth)
		for i := range blk.Instrs {
			fmt.Fprintf(&b, "\t%s\n", blk.Instrs[i].String())
		}
		fmt.Fprintf(&b, "\t%s\n", blk.Term.String())
	}
	return b.String()
}

// Global is a module-level variable as seen by the linker and the program
// analyzer.
type Global struct {
	Name      string // qualified name
	Module    string
	Size      int32
	Init      []byte  // nil for extern declarations
	Relocs    []Reloc // address words inside Init
	Defined   bool
	Static    bool
	AddrTaken bool // aliased: ineligible for promotion (§4.1.2)
	Scalar    bool // simple variable of size 1/2/4 (promotion candidate)
}

// Reloc is a link-time patch inside global init data.
type Reloc struct {
	Offset int32
	Target string
	Addend int32
}

// Module is the intermediate file contents for one compilation unit.
type Module struct {
	Name    string
	Funcs   []*Func
	Globals []*Global

	// ExternFuncs lists functions referenced but not defined here.
	ExternFuncs []string
}

// FuncByName returns the function with the given qualified name, or nil.
func (m *Module) FuncByName(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// GlobalByName returns the global with the given qualified name, or nil.
func (m *Module) GlobalByName(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// Validate checks what the optimizer and code generator assume of a
// module decoded from bytes: no global has a negative size, and every
// function passes Func.Validate. It returns the first violation found and
// allocates nothing unless it finds one.
func (m *Module) Validate() error {
	for _, g := range m.Globals {
		if g.Size < 0 {
			return fmt.Errorf("global %s: negative size %d", g.Name, g.Size)
		}
	}
	for _, f := range m.Funcs {
		if err := f.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks structural invariants: the entry block is Blocks[0] and
// every block's ID is its index; terminator kinds are known; terminator
// targets, predecessors and successors name blocks; the register count is
// not negative and every register the function names lies in
// [0, NextReg], with each use a real register. It returns the first
// violation found and allocates nothing unless it finds one.
func (f *Func) Validate() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", f.Name)
	}
	if f.NextReg < 0 {
		return fmt.Errorf("%s: register count %d out of range", f.Name, f.NextReg)
	}
	inRange := func(r Reg) bool { return r >= 0 && r <= f.NextReg }
	isBlock := func(id int) bool { return id >= 0 && id < len(f.Blocks) }
	for _, r := range f.Params {
		if !inRange(r) {
			return fmt.Errorf("%s: parameter register %d out of range", f.Name, r)
		}
	}
	for r := range f.Pinned {
		if !inRange(r) {
			return fmt.Errorf("%s: pinned register %d out of range", f.Name, r)
		}
	}
	for i, b := range f.Blocks {
		if b.ID != i {
			return fmt.Errorf("%s: block %d has ID %d", f.Name, i, b.ID)
		}
		switch t := &b.Term; t.Kind {
		case TermJump:
			if !isBlock(t.True) {
				return fmt.Errorf("%s: b%d: branch target b%d out of range", f.Name, b.ID, t.True)
			}
		case TermBranch:
			if !isBlock(t.True) || !isBlock(t.False) {
				return fmt.Errorf("%s: b%d: branch target b%d or b%d out of range", f.Name, b.ID, t.True, t.False)
			}
			if t.Cond <= 0 || t.Cond > f.NextReg {
				return fmt.Errorf("%s: b%d: branch condition register %d invalid", f.Name, b.ID, t.Cond)
			}
		case TermReturn:
			if t.HasVal && (t.Val <= 0 || t.Val > f.NextReg) {
				return fmt.Errorf("%s: b%d: return value register %d invalid", f.Name, b.ID, t.Val)
			}
		default:
			return fmt.Errorf("%s: b%d: unknown terminator kind %d", f.Name, b.ID, t.Kind)
		}
		for _, id := range b.Preds {
			if !isBlock(id) {
				return fmt.Errorf("%s: b%d: predecessor b%d out of range", f.Name, b.ID, id)
			}
		}
		for _, id := range b.Succs {
			if !isBlock(id) {
				return fmt.Errorf("%s: b%d: successor b%d out of range", f.Name, b.ID, id)
			}
		}
		for j := range b.Instrs {
			in := &b.Instrs[j]
			if !inRange(in.Dst) || !inRange(in.A) || !inRange(in.B) || !inRange(in.Mem.Base) {
				return fmt.Errorf("%s: b%d[%d]: register out of range", f.Name, b.ID, j)
			}
			for _, r := range in.Args {
				if r <= 0 || r > f.NextReg {
					return fmt.Errorf("%s: b%d[%d]: argument register %d invalid", f.Name, b.ID, j, r)
				}
			}
			// The other uses, on a copy without the arguments so that they
			// fit the stack buffer.
			use := *in
			use.Args = nil
			var buf [4]Reg
			for _, u := range use.Uses(buf[:0]) {
				if u == 0 {
					return fmt.Errorf("%s: b%d[%d]: use of register 0", f.Name, b.ID, j)
				}
			}
		}
	}
	return nil
}
