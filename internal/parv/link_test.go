package parv

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

func TestLinkGlobalLayoutDeterministic(t *testing.T) {
	mk := func(order []string) *Executable {
		var gs []*DataSym
		for _, n := range order {
			gs = append(gs, &DataSym{Name: n, Size: 4, Defined: true, Init: []byte{1, 2, 3, 4}})
		}
		exe, err := Link([]*Object{
			{Module: "a.mc", Globals: gs, Funcs: []*ObjFunc{{Name: "main", Code: []Instr{{Op: BV, Ra: RegRP}}}}},
		}, LinkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return exe
	}
	a := mk([]string{"x", "y", "z"})
	b := mk([]string{"z", "x", "y"})
	for _, n := range []string{"x", "y", "z"} {
		if a.GlobalAddr[n] != b.GlobalAddr[n] {
			t.Errorf("address of %s depends on declaration order: %#x vs %#x",
				n, a.GlobalAddr[n], b.GlobalAddr[n])
		}
	}
}

func TestLinkDuplicateGlobal(t *testing.T) {
	g := func() *DataSym {
		return &DataSym{Name: "g", Size: 4, Defined: true, Init: make([]byte, 4)}
	}
	_, err := Link([]*Object{
		{Module: "a.mc", Globals: []*DataSym{g()}},
		{Module: "b.mc", Globals: []*DataSym{g()},
			Funcs: []*ObjFunc{{Name: "main", Code: []Instr{{Op: BV, Ra: RegRP}}}}},
	}, LinkConfig{})
	if err == nil || !strings.Contains(err.Error(), "defined in both") {
		t.Fatalf("want duplicate-definition error, got %v", err)
	}
}

func TestLinkDuplicateFunction(t *testing.T) {
	f := func() *ObjFunc { return &ObjFunc{Name: "f", Code: []Instr{{Op: BV, Ra: RegRP}}} }
	_, err := Link([]*Object{
		{Module: "a.mc", Funcs: []*ObjFunc{f()}},
		{Module: "b.mc", Funcs: []*ObjFunc{f(), {Name: "main", Code: []Instr{{Op: BV, Ra: RegRP}}}}},
	}, LinkConfig{})
	if err == nil || !strings.Contains(err.Error(), "defined in both") {
		t.Fatalf("want duplicate-definition error, got %v", err)
	}
}

func TestLinkUndefinedSymbols(t *testing.T) {
	_, err := Link([]*Object{{
		Module: "a.mc",
		Funcs: []*ObjFunc{{Name: "main", Code: []Instr{
			{Op: BL, Rd: RegRP},
			{Op: BV, Ra: RegRP},
		}, Relocs: []Reloc{{Index: 0, Kind: RelCall, Sym: "missing"}}}},
	}}, LinkConfig{})
	if err == nil || !strings.Contains(err.Error(), "undefined function missing") {
		t.Fatalf("want undefined-function error, got %v", err)
	}

	_, err = Link([]*Object{{
		Module:  "a.mc",
		Globals: []*DataSym{{Name: "g", Size: 4}}, // referenced, not defined
		Funcs:   []*ObjFunc{{Name: "main", Code: []Instr{{Op: BV, Ra: RegRP}}}},
	}}, LinkConfig{})
	if err == nil || !strings.Contains(err.Error(), "undefined global g") {
		t.Fatalf("want undefined-global error, got %v", err)
	}

	_, err = Link([]*Object{{
		Module: "a.mc",
		Funcs:  []*ObjFunc{{Name: "notmain", Code: []Instr{{Op: BV, Ra: RegRP}}}},
	}}, LinkConfig{})
	if err == nil || !strings.Contains(err.Error(), "entry symbol") {
		t.Fatalf("want missing-entry error, got %v", err)
	}
}

func TestLinkRuntimeIntrinsicsSynthesized(t *testing.T) {
	exe, err := Link([]*Object{{
		Module: "a.mc",
		Funcs: []*ObjFunc{{Name: "main", Code: []Instr{
			{Op: MOV, Rd: 3, Ra: RegRP},
			{Op: LDI, Rd: 26, Imm: 'x'},
			{Op: BL, Rd: RegRP},
			{Op: BV, Ra: 3},
		}, Relocs: []Reloc{{Index: 2, Kind: RelCall, Sym: "putchar"}}}},
	}}, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := exe.FuncIdx["putchar"]; !ok {
		t.Fatal("putchar not synthesized")
	}
	vm := NewVM(exe)
	if _, err := vm.Run(100); err != nil {
		t.Fatal(err)
	}
	if vm.Output() != "x" {
		t.Errorf("output = %q, want x", vm.Output())
	}
}

// TestLinkRuntimeRoutineOrder: the routines a program uses but does not
// define follow its functions in one fixed order, whichever relocation
// names them and in whatever order, and a routine the program defines is
// not synthesized.
func TestLinkRuntimeRoutineOrder(t *testing.T) {
	ret := []Instr{{Op: BV, Ra: RegRP}}
	names := func(exe *Executable) string {
		var out []string
		for i, fi := range exe.Funcs {
			if exe.FuncIdx[fi.Name] != i {
				t.Errorf("FuncIdx[%s] = %d, want %d", fi.Name, exe.FuncIdx[fi.Name], i)
			}
			out = append(out, fi.Name)
		}
		return strings.Join(out, " ")
	}
	for i := 0; i < 20; i++ {
		exe, err := Link([]*Object{{
			Module: "a.mc",
			Funcs: []*ObjFunc{{Name: "main", Code: []Instr{{Op: BL}, {Op: LDI}, {Op: BV, Ra: RegRP}}, Relocs: []Reloc{
				{Index: 0, Kind: RelCall, Sym: "exit"},
				{Index: 1, Kind: RelFuncAddr, Sym: "putint"},
			}}},
			Globals: []*DataSym{{Name: "tab", Size: 4, Init: make([]byte, 4), Defined: true,
				DataRelocs: []DataReloc{{Target: "putchar"}}}},
		}}, LinkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := names(exe), "main putchar putint exit"; got != want {
			t.Fatalf("link %d laid out %s, want %s", i, got, want)
		}
	}
	exe, err := Link([]*Object{{
		Module: "a.mc",
		Funcs: []*ObjFunc{
			{Name: "main", Code: []Instr{{Op: BL}, {Op: BL}, {Op: BV, Ra: RegRP}}, Relocs: []Reloc{
				{Index: 0, Kind: RelCall, Sym: "exit"},
				{Index: 1, Kind: RelCall, Sym: "putint"},
			}},
			{Name: "putint", Code: ret},
		},
	}}, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(exe), "main putint exit"; got != want {
		t.Errorf("with putint defined, laid out %s, want %s", got, want)
	}
}

func TestLinkDataRelocs(t *testing.T) {
	// table[0] = &value, table[1] = &fn.
	table := &DataSym{
		Name: "table", Size: 8, Defined: true, Init: make([]byte, 8),
		DataRelocs: []DataReloc{
			{Offset: 0, Target: "value"},
			{Offset: 4, Target: "fn"},
		},
	}
	value := &DataSym{Name: "value", Size: 4, Defined: true, Init: []byte{0x2a, 0, 0, 0}}
	fn := &ObjFunc{Name: "fn", Code: []Instr{
		{Op: LDI, Rd: RegRet, Imm: 5},
		{Op: BV, Ra: RegRP},
	}}
	mainFn := &ObjFunc{Name: "main", Code: []Instr{
		{Op: MOV, Rd: 3, Ra: RegRP},
		// Load &value from table[0], then load *it.
		{Op: LDW, Rd: 19, Ra: RegDP, Imm: 0, MemSize: 4},
		{Op: LDW, Rd: 20, Ra: 19, Imm: 0, MemSize: 4},
		// Load &fn from table[1] and call it.
		{Op: LDW, Rd: 21, Ra: RegDP, Imm: 4, MemSize: 4},
		{Op: BLR, Rd: RegRP, Ra: 21},
		{Op: ADD, Rd: RegRet, Ra: RegRet, Rb: 20},
		{Op: BV, Ra: 3},
	}, Relocs: []Reloc{
		{Index: 1, Kind: RelDataDisp, Sym: "table"},
		{Index: 3, Kind: RelDataDisp, Sym: "table"},
	}}
	exe, err := Link([]*Object{{
		Module:  "a.mc",
		Globals: []*DataSym{table, value},
		Funcs:   []*ObjFunc{mainFn, fn},
	}}, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Check the table image directly.
	off := exe.GlobalAddr["table"] - DataBase
	got := int32(binary.LittleEndian.Uint32(exe.Data[off:]))
	if got != exe.GlobalAddr["value"] {
		t.Errorf("table[0] = %#x, want &value %#x", got, exe.GlobalAddr["value"])
	}

	vm := NewVM(exe)
	exit, err := vm.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if exit != 47 { // 42 + 5
		t.Errorf("exit = %d, want 47", exit)
	}
}

func TestLinkRebasesBranchTargets(t *testing.T) {
	// Two functions, each with an internal branch; the second function's
	// branch target must be rebased past the first.
	f1 := &ObjFunc{Name: "main", Code: []Instr{
		{Op: MOV, Rd: 3, Ra: RegRP},
		{Op: BL, Rd: RegRP},
		{Op: BV, Ra: 3},
	}, Relocs: []Reloc{{Index: 1, Kind: RelCall, Sym: "f2"}}}
	f2 := &ObjFunc{Name: "f2", Code: []Instr{
		{Op: LDI, Rd: RegRet, Imm: 1},
		{Op: B, Target: 3}, // skip the next instruction
		{Op: LDI, Rd: RegRet, Imm: 99},
		{Op: BV, Ra: RegRP},
	}}
	exe, err := Link([]*Object{{Module: "a.mc", Funcs: []*ObjFunc{f1, f2}}}, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(exe)
	exit, err := vm.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if exit != 1 {
		t.Errorf("exit = %d, want 1 (branch target not rebased?)", exit)
	}
}

func TestFuncOfPC(t *testing.T) {
	f1 := &ObjFunc{Name: "main", Code: []Instr{{Op: BV, Ra: RegRP}}}
	f2 := &ObjFunc{Name: "g", Code: []Instr{{Op: NOP}, {Op: BV, Ra: RegRP}}}
	exe, err := Link([]*Object{{Module: "a.mc", Funcs: []*ObjFunc{f1, f2}}}, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := exe.Funcs[exe.FuncOfPC(0)].Name; got != "main" {
		t.Errorf("FuncOfPC(0) = %s, want main", got)
	}
	if got := exe.Funcs[exe.FuncOfPC(2)].Name; got != "g" {
		t.Errorf("FuncOfPC(2) = %s, want g", got)
	}
	if exe.FuncOfPC(-1) != -1 || exe.FuncOfPC(99) != -1 {
		t.Error("out-of-range pc should map to -1")
	}
}

func TestDisassembleSmoke(t *testing.T) {
	f := &ObjFunc{Name: "main", Code: []Instr{
		{Op: LDI, Rd: 19, Imm: 7},
		{Op: CMPI, Rd: 20, Ra: 19, Imm: 3, Cond: GT},
		{Op: STW, Ra: RegSP, Rb: 20, Imm: 4, MemSize: 4},
		{Op: BV, Ra: RegRP},
	}}
	exe, err := Link([]*Object{{Module: "a.mc", Funcs: []*ObjFunc{f}}}, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Disassemble(&buf, exe)
	out := buf.String()
	for _, want := range []string{"main:", "ldi r19, 7", "cmpi.gt", "stw.4 4(sp), r20", "bv rp"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}
