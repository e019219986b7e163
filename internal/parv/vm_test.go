package parv

import (
	"strings"
	"testing"
	"testing/quick"
)

// exeFromFuncs links a set of hand-written object functions with main as
// the entry.
func exeFromFuncs(t *testing.T, globals []*DataSym, fns ...*ObjFunc) *Executable {
	t.Helper()
	obj := &Object{Module: "test.mc", Funcs: fns, Globals: globals}
	exe, err := Link([]*Object{obj}, LinkConfig{DataSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

// runMain builds main from the given instructions (with an appended
// return) and runs it.
func runMain(t *testing.T, code ...Instr) (*VM, int32) {
	t.Helper()
	code = append(code, Instr{Op: BV, Ra: RegRP})
	exe := exeFromFuncs(t, nil, &ObjFunc{Name: "main", Code: code})
	vm := NewVM(exe)
	exit, err := vm.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	return vm, exit
}

func TestVMArithmetic(t *testing.T) {
	cases := []struct {
		name string
		code []Instr
		want int32
	}{
		{"ldi", []Instr{{Op: LDI, Rd: RegRet, Imm: 42}}, 42},
		{"add", []Instr{
			{Op: LDI, Rd: 19, Imm: 40}, {Op: LDI, Rd: 20, Imm: 2},
			{Op: ADD, Rd: RegRet, Ra: 19, Rb: 20}}, 42},
		{"addi", []Instr{{Op: LDI, Rd: 19, Imm: 40}, {Op: ADDI, Rd: RegRet, Ra: 19, Imm: 2}}, 42},
		{"sub", []Instr{
			{Op: LDI, Rd: 19, Imm: 50}, {Op: LDI, Rd: 20, Imm: 8},
			{Op: SUB, Rd: RegRet, Ra: 19, Rb: 20}}, 42},
		{"subi", []Instr{{Op: LDI, Rd: 19, Imm: 50}, {Op: SUBI, Rd: RegRet, Ra: 19, Imm: 8}}, 42},
		{"mul", []Instr{
			{Op: LDI, Rd: 19, Imm: 6}, {Op: LDI, Rd: 20, Imm: 7},
			{Op: MUL, Rd: RegRet, Ra: 19, Rb: 20}}, 42},
		{"div", []Instr{
			{Op: LDI, Rd: 19, Imm: -85}, {Op: LDI, Rd: 20, Imm: -2},
			{Op: DIV, Rd: RegRet, Ra: 19, Rb: 20}}, 42},
		{"rem", []Instr{
			{Op: LDI, Rd: 19, Imm: 142}, {Op: LDI, Rd: 20, Imm: 100},
			{Op: REM, Rd: RegRet, Ra: 19, Rb: 20}}, 42},
		{"and", []Instr{
			{Op: LDI, Rd: 19, Imm: 0x6b}, {Op: ANDI, Rd: RegRet, Ra: 19, Imm: 0x2e}}, 42},
		{"or", []Instr{
			{Op: LDI, Rd: 19, Imm: 0x28}, {Op: ORI, Rd: RegRet, Ra: 19, Imm: 0x02}}, 42},
		{"xor", []Instr{
			{Op: LDI, Rd: 19, Imm: 0xff}, {Op: XORI, Rd: RegRet, Ra: 19, Imm: 0xd5}}, 42},
		{"shl", []Instr{
			{Op: LDI, Rd: 19, Imm: 21}, {Op: SHLI, Rd: RegRet, Ra: 19, Imm: 1}}, 42},
		{"shr-arith", []Instr{
			{Op: LDI, Rd: 19, Imm: -84}, {Op: SHRI, Rd: 19, Ra: 19, Imm: 1},
			{Op: NEG, Rd: RegRet, Ra: 19}}, 42},
		{"not", []Instr{
			{Op: LDI, Rd: 19, Imm: -43}, {Op: NOT, Rd: RegRet, Ra: 19}}, 42},
		{"mov", []Instr{{Op: LDI, Rd: 19, Imm: 42}, {Op: MOV, Rd: RegRet, Ra: 19}}, 42},
		{"cmp-true", []Instr{
			{Op: LDI, Rd: 19, Imm: 5}, {Op: LDI, Rd: 20, Imm: 9},
			{Op: CMP, Rd: RegRet, Ra: 19, Rb: 20, Cond: LT}}, 1},
		{"cmpi-false", []Instr{
			{Op: LDI, Rd: 19, Imm: 5}, {Op: CMPI, Rd: RegRet, Ra: 19, Imm: 5, Cond: GT}}, 0},
		{"wrap", []Instr{
			{Op: LDI, Rd: 19, Imm: 0x7fffffff}, {Op: ADDI, Rd: RegRet, Ra: 19, Imm: 1}}, -2147483648,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, got := runMain(t, tc.code...)
			if got != tc.want {
				t.Errorf("got %d, want %d", got, tc.want)
			}
		})
	}
}

func TestVMZeroRegisterIsHardwired(t *testing.T) {
	_, got := runMain(t,
		Instr{Op: LDI, Rd: RegZero, Imm: 99},
		Instr{Op: MOV, Rd: RegRet, Ra: RegZero},
	)
	if got != 0 {
		t.Errorf("r0 = %d after write, want 0", got)
	}
}

func TestVMLoadStoreWidths(t *testing.T) {
	g := &DataSym{Name: "buf", Size: 16, Defined: true, Init: make([]byte, 16)}
	fn := &ObjFunc{Name: "main", Code: []Instr{
		{Op: LDI, Rd: 19, Imm: -2}, // 0xfffffffe
		{Op: STW, Ra: RegDP, Rb: 19, Imm: 0, MemSize: 4},
		{Op: STW, Ra: RegDP, Rb: 19, Imm: 4, MemSize: 1}, // truncates to 0xfe
		{Op: STW, Ra: RegDP, Rb: 19, Imm: 8, MemSize: 2}, // truncates to 0xfffe
		{Op: LDW, Rd: 20, Ra: RegDP, Imm: 4, MemSize: 1}, // zero-extends
		{Op: LDW, Rd: 21, Ra: RegDP, Imm: 8, MemSize: 2},
		{Op: LDW, Rd: 22, Ra: RegDP, Imm: 0, MemSize: 4},
		// ret = b(254) + h(65534) + (w == -2)
		{Op: ADD, Rd: RegRet, Ra: 20, Rb: 21},
		{Op: CMPI, Rd: 23, Ra: 22, Imm: -2, Cond: EQ},
		{Op: ADD, Rd: RegRet, Ra: RegRet, Rb: 23},
		{Op: BV, Ra: RegRP},
	}}
	exe := exeFromFuncs(t, []*DataSym{g}, fn)
	vm := NewVM(exe)
	exit, err := vm.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if want := int32(254 + 65534 + 1); exit != want {
		t.Errorf("exit = %d, want %d", exit, want)
	}
	if vm.Stats.Loads != 3 || vm.Stats.Stores != 3 {
		t.Errorf("loads/stores = %d/%d, want 3/3", vm.Stats.Loads, vm.Stats.Stores)
	}
}

func TestVMSingletonAccounting(t *testing.T) {
	g := &DataSym{Name: "g", Size: 4, Defined: true, Init: make([]byte, 4)}
	fn := &ObjFunc{Name: "main", Code: []Instr{
		{Op: STW, Ra: RegDP, Rb: 0, Imm: 0, MemSize: 4, Singleton: true},
		{Op: LDW, Rd: 19, Ra: RegDP, Imm: 0, MemSize: 4, Singleton: true},
		{Op: LDW, Rd: 20, Ra: RegDP, Imm: 0, MemSize: 4}, // array-style: not singleton
		{Op: BV, Ra: RegRP},
	}}
	exe := exeFromFuncs(t, []*DataSym{g}, fn)
	vm := NewVM(exe)
	if _, err := vm.Run(100); err != nil {
		t.Fatal(err)
	}
	if vm.Stats.SingletonLoads != 1 || vm.Stats.SingletonStores != 1 {
		t.Errorf("singleton loads/stores = %d/%d, want 1/1",
			vm.Stats.SingletonLoads, vm.Stats.SingletonStores)
	}
	if vm.Stats.SingletonRefs() != 2 {
		t.Errorf("SingletonRefs = %d, want 2", vm.Stats.SingletonRefs())
	}
}

// trapCase is one program that must stop with exactly the given trap,
// after exactly the given number of instructions and cycles: the faulting
// instruction counts in Instrs but not in Cycles.
type trapCase struct {
	name           string
	code           []Instr
	limit          uint64 // instruction budget; 0 selects 100
	trap           Trap
	instrs, cycles uint64
}

func runTrapCase(t *testing.T, exe *Executable, tc trapCase) {
	t.Helper()
	limit := tc.limit
	if limit == 0 {
		limit = 100
	}
	vm := NewVM(exe)
	_, err := vm.Run(limit)
	if err == nil {
		t.Fatal("expected trap")
	}
	var trap *Trap
	if !asTrap(err, &trap) {
		t.Fatalf("error is not a *Trap: %T %v", err, err)
	}
	if *trap != tc.trap {
		t.Errorf("trap = %+v, want %+v", *trap, tc.trap)
	}
	if vm.Stats.Instrs != tc.instrs || vm.Stats.Cycles != tc.cycles {
		t.Errorf("instrs/cycles at the trap = %d/%d, want %d/%d",
			vm.Stats.Instrs, vm.Stats.Cycles, tc.instrs, tc.cycles)
	}
}

// The data segment of exeFromFuncs programs: [DataBase, dataEnd).
const dataEnd = DataBase + 1<<20

func TestVMTraps(t *testing.T) {
	inMain := func(pc int, msg string) Trap { return Trap{PC: pc, Func: "main", Msg: msg} }
	ret := Instr{Op: BV, Ra: RegRP}
	cases := []trapCase{
		{"null-load", []Instr{{Op: LDW, Rd: 19, Ra: 0, Imm: 0, MemSize: 4}, ret},
			0, inMain(0, "load of unmapped address 0x0"), 1, 0},
		{"null-store", []Instr{{Op: STW, Ra: 0, Rb: 0, Imm: 4, MemSize: 4}, ret},
			0, inMain(0, "store to unmapped address 0x4"), 1, 0},
		{"div-zero", []Instr{
			{Op: LDI, Rd: 19, Imm: 1},
			{Op: DIV, Rd: 19, Ra: 19, Rb: 0}, ret},
			0, inMain(1, "division by zero"), 2, 1},
		{"rem-zero", []Instr{
			{Op: LDI, Rd: 19, Imm: 1},
			{Op: REM, Rd: 19, Ra: 19, Rb: 0}, ret},
			0, inMain(1, "remainder by zero"), 2, 1},
		{"bad-indirect", []Instr{
			{Op: LDI, Rd: 19, Imm: 12345},
			{Op: BLR, Rd: RegRP, Ra: 19}, ret},
			0, inMain(1, "indirect call to bad address 0x3039"), 2, 1},
		{"misaligned", []Instr{
			{Op: LDI, Rd: 19, Imm: DataBase + 1},
			{Op: LDW, Rd: 20, Ra: 19, Imm: 0, MemSize: 4}, ret},
			0, inMain(1, "misaligned word load at 0x10001"), 2, 1},
		{"misaligned-word-store", []Instr{
			{Op: LDI, Rd: 19, Imm: DataBase + 2},
			{Op: STW, Ra: 19, Rb: 0, Imm: 0, MemSize: 4}, ret},
			0, inMain(1, "misaligned word store at 0x10002"), 2, 1},
		{"misaligned-halfword-load", []Instr{
			{Op: LDI, Rd: 19, Imm: DataBase + 1},
			{Op: LDW, Rd: 20, Ra: 19, Imm: 0, MemSize: 2}, ret},
			0, inMain(1, "misaligned halfword load at 0x10001"), 2, 1},
		{"misaligned-halfword-store", []Instr{
			{Op: LDI, Rd: 19, Imm: DataBase + 1},
			{Op: STW, Ra: 19, Rb: 0, Imm: 0, MemSize: 2}, ret},
			0, inMain(1, "misaligned halfword store at 0x10001"), 2, 1},
		{"store-unmapped-high", []Instr{
			{Op: LDI, Rd: 19, Imm: dataEnd},
			{Op: STW, Ra: 19, Rb: 0, Imm: 0, MemSize: 1}, ret},
			0, inMain(1, "store to unmapped address 0x110000"), 2, 1},
		// A misaligned word that also crosses the end of the segment:
		// the unmapped check wins over the alignment check.
		{"unmapped-before-misaligned", []Instr{
			{Op: LDI, Rd: 19, Imm: dataEnd - 2},
			{Op: LDW, Rd: 20, Ra: 19, Imm: 0, MemSize: 4}, ret},
			0, inMain(1, "load of unmapped address 0x10fffe"), 2, 1},
		// Address arithmetic wraps in 32 bits, like the registers.
		{"address-wraps", []Instr{
			{Op: LDI, Rd: 19, Imm: 0x7fffffff},
			{Op: LDW, Rd: 20, Ra: 19, Imm: 1, MemSize: 4}, ret},
			0, inMain(1, "load of unmapped address 0x80000000"), 2, 1},
		{"bad-jump", []Instr{
			{Op: LDI, Rd: 19, Imm: 12345},
			{Op: BV, Ra: 19}, ret},
			0, inMain(1, "jump to bad address 0x3039"), 2, 1},
		{"unknown-syscall", []Instr{{Op: SYS, Imm: 99}, ret},
			0, inMain(0, "unknown syscall 99"), 1, 0},
		// Running past the last instruction: the trap names no function.
		{"fall-off-end", []Instr{{Op: NOP}},
			0, Trap{PC: 1, Func: "?", Msg: "pc out of range"}, 1, 1},
		{"branch-out-of-range", []Instr{{Op: B, Target: 7}, ret},
			0, Trap{PC: 7, Func: "?", Msg: "pc out of range"}, 1, 2},
		{"instruction-limit", []Instr{{Op: B, Target: 0}},
			50, inMain(0, "instruction limit (50) exceeded"), 50, 100},
		// The budget is checked before the pc.
		{"limit-before-pc-range", []Instr{{Op: NOP}},
			1, Trap{PC: 1, Func: "?", Msg: "instruction limit (1) exceeded"}, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runTrapCase(t, exeFromFuncs(t, nil, &ObjFunc{Name: "main", Code: tc.code}), tc)
		})
	}
}

// TestVMTrapNamesStaticFunction: a trap names the function whose text
// holds the faulting pc.
func TestVMTrapNamesStaticFunction(t *testing.T) {
	callee := &ObjFunc{Name: "callee", Code: []Instr{
		{Op: LDW, Rd: 19, Ra: 0, Imm: 8, MemSize: 4},
		{Op: BV, Ra: RegRP},
	}}
	mainFn := &ObjFunc{Name: "main", Code: []Instr{
		{Op: MOV, Rd: 3, Ra: RegRP},
		{Op: BL, Rd: RegRP},
		{Op: BV, Ra: 3},
	}, Relocs: []Reloc{{Index: 1, Kind: RelCall, Sym: "callee"}}}
	exe := exeFromFuncs(t, nil, mainFn, callee)
	runTrapCase(t, exe, trapCase{
		trap:   Trap{PC: 3, Func: "callee", Msg: "load of unmapped address 0x8"},
		instrs: 3, cycles: 3,
	})
}

// TestVMDataSegmentEdges pins the data segment's boundaries and zero fill:
// an address never written reads 0, the last bytes below the segment's end
// can be read and written, the first byte past it faults, and an initial
// image whose length is no multiple of any page size is loaded exactly,
// with zeros after it.
func TestVMDataSegmentEdges(t *testing.T) {
	const size = 1<<20 + 12 // the segment's end is no multiple of a page
	const end = DataBase + size
	init := make([]byte, 5003)
	for i := range init {
		init[i] = byte(i*7 + 1)
	}
	img := &DataSym{Name: "img", Size: int32(len(init)), Defined: true, Init: init}
	link := func(t *testing.T, code ...Instr) *Executable {
		t.Helper()
		obj := &Object{Module: "test.mc", Globals: []*DataSym{img},
			Funcs: []*ObjFunc{{Name: "main", Code: code}}}
		exe, err := Link([]*Object{obj}, LinkConfig{DataSize: size})
		if err != nil {
			t.Fatal(err)
		}
		return exe
	}
	run := func(t *testing.T, code ...Instr) int32 {
		t.Helper()
		vm := NewVM(link(t, append(code, Instr{Op: BV, Ra: RegRP})...))
		exit, err := vm.Run(1000)
		if err != nil {
			t.Fatal(err)
		}
		return exit
	}

	t.Run("untouched-reads-zero", func(t *testing.T) {
		got := run(t,
			Instr{Op: LDI, Rd: 19, Imm: DataBase + 1<<19},
			Instr{Op: LDI, Rd: 20, Imm: -1},
			Instr{Op: STW, Ra: 19, Rb: 20, Imm: 64, MemSize: 4},
			Instr{Op: LDW, Rd: 21, Ra: 19, Imm: 0, MemSize: 4},
			Instr{Op: LDW, Rd: 22, Ra: 19, Imm: 1 << 16, MemSize: 2},
			Instr{Op: LDW, Rd: 23, Ra: 19, Imm: -(1 << 16) + 3, MemSize: 1},
			Instr{Op: OR, Rd: RegRet, Ra: 21, Rb: 22},
			Instr{Op: OR, Rd: RegRet, Ra: RegRet, Rb: 23},
		)
		if got != 0 {
			t.Errorf("untouched memory reads %#x, want 0", got)
		}
	})
	t.Run("last-word", func(t *testing.T) {
		got := run(t,
			Instr{Op: LDI, Rd: 19, Imm: end - 4},
			Instr{Op: LDI, Rd: 20, Imm: 0x12345678},
			Instr{Op: STW, Ra: 19, Rb: 20, Imm: 0, MemSize: 4},
			Instr{Op: LDI, Rd: 20, Imm: 0x9a},
			Instr{Op: STW, Ra: 19, Rb: 20, Imm: 3, MemSize: 1},
			Instr{Op: LDW, Rd: RegRet, Ra: 19, Imm: 0, MemSize: 4},
		)
		if got != -0x65cba988 { // 0x9a345678
			t.Errorf("last word reads %#x, want 0x9a345678", uint32(got))
		}
		for _, c := range []struct {
			name string
			in   Instr
			msg  string
		}{
			{"load-past-end", Instr{Op: LDW, Rd: 20, Ra: 19, Imm: 4, MemSize: 1}, "load of unmapped address 0x11000c"},
			{"store-past-end", Instr{Op: STW, Ra: 19, Rb: 0, Imm: 4, MemSize: 1}, "store to unmapped address 0x11000c"},
			{"halfword-across-end", Instr{Op: LDW, Rd: 20, Ra: 19, Imm: 4 - 1, MemSize: 2}, "load of unmapped address 0x11000b"},
		} {
			t.Run(c.name, func(t *testing.T) {
				exe := link(t, Instr{Op: LDI, Rd: 19, Imm: end - 4}, c.in, Instr{Op: BV, Ra: RegRP})
				runTrapCase(t, exe, trapCase{trap: Trap{PC: 1, Func: "main", Msg: c.msg}, instrs: 2, cycles: 1})
			})
		}
	})
	t.Run("image-tail", func(t *testing.T) {
		exe := link(t)
		base := exe.GlobalAddr["img"]
		if len(exe.Data) != len(init) {
			t.Fatalf("data image is %d bytes, want %d", len(exe.Data), len(init))
		}
		n := int32(len(init))
		got := run(t,
			Instr{Op: LDI, Rd: 19, Imm: base + n - 1},
			Instr{Op: LDW, Rd: 20, Ra: 19, Imm: 0, MemSize: 1},  // last image byte
			Instr{Op: LDW, Rd: 21, Ra: 19, Imm: 1, MemSize: 1},  // first byte past it
			Instr{Op: LDW, Rd: 22, Ra: 19, Imm: -2, MemSize: 2}, // halfword inside it
			Instr{Op: SHLI, Rd: 21, Ra: 21, Imm: 8},
			Instr{Op: SHLI, Rd: 22, Ra: 22, Imm: 16},
			Instr{Op: OR, Rd: RegRet, Ra: 20, Rb: 21},
			Instr{Op: OR, Rd: RegRet, Ra: RegRet, Rb: 22},
		)
		last := uint32(init[n-1])
		half := uint32(init[n-3]) | uint32(init[n-2])<<8
		if want := int32(last | half<<16); got != want {
			t.Errorf("image tail reads %#x, want %#x", uint32(got), uint32(want))
		}
	})
}

func asTrap(err error, out **Trap) bool {
	t, ok := err.(*Trap)
	if ok {
		*out = t
	}
	return ok
}

func TestVMInstructionLimit(t *testing.T) {
	// Infinite loop: B to self.
	exe := exeFromFuncs(t, nil, &ObjFunc{Name: "main", Code: []Instr{
		{Op: B, Target: 0},
	}})
	vm := NewVM(exe)
	_, err := vm.Run(1000)
	if err == nil || !strings.Contains(err.Error(), "instruction limit") {
		t.Fatalf("expected instruction limit trap, got %v", err)
	}
	if vm.Stats.Instrs != 1000 {
		t.Errorf("executed %d instructions, want 1000", vm.Stats.Instrs)
	}
	// A larger budget resumes where the run stopped.
	if _, err := vm.Run(1500); err == nil || vm.Stats.Instrs != 1500 || vm.Stats.Cycles != 3000 {
		t.Errorf("resumed run = %v at %d instructions, %d cycles; want the limit at 1500, 3000",
			err, vm.Stats.Instrs, vm.Stats.Cycles)
	}
}

func TestVMCallsAndProfile(t *testing.T) {
	leaf := &ObjFunc{Name: "leaf", Code: []Instr{
		{Op: ADDI, Rd: RegRet, Ra: 26, Imm: 1},
		{Op: BV, Ra: RegRP},
	}}
	// main calls leaf three times, saving rp in a callee-saves register
	// (r3) to keep the test frame-free.
	mainFn := &ObjFunc{Name: "main", Code: []Instr{
		{Op: MOV, Rd: 3, Ra: RegRP},
		{Op: LDI, Rd: 26, Imm: 0},
		{Op: BL, Rd: RegRP},
		{Op: MOV, Rd: 26, Ra: RegRet},
		{Op: BL, Rd: RegRP},
		{Op: MOV, Rd: 26, Ra: RegRet},
		{Op: BL, Rd: RegRP},
		{Op: BV, Ra: 3},
	}, Relocs: []Reloc{
		{Index: 2, Kind: RelCall, Sym: "leaf"},
		{Index: 4, Kind: RelCall, Sym: "leaf"},
		{Index: 6, Kind: RelCall, Sym: "leaf"},
	}}
	exe := exeFromFuncs(t, nil, mainFn, leaf)
	vm := NewVM(exe)
	vm.ProfileEdges = true
	exit, err := vm.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if exit != 3 {
		t.Errorf("exit = %d, want 3", exit)
	}
	if vm.Stats.Calls != 3 {
		t.Errorf("calls = %d, want 3", vm.Stats.Calls)
	}
	p := vm.Profile()
	if got := p.Edges[EdgeKey{Caller: "main", Callee: "leaf"}]; got != 3 {
		t.Errorf("profile edge main->leaf = %d, want 3", got)
	}
}

func TestVMIndirectCall(t *testing.T) {
	target := &ObjFunc{Name: "target", Code: []Instr{
		{Op: LDI, Rd: RegRet, Imm: 77},
		{Op: BV, Ra: RegRP},
	}}
	mainFn := &ObjFunc{Name: "main", Code: []Instr{
		{Op: MOV, Rd: 3, Ra: RegRP},
		{Op: LDI, Rd: 19}, // patched to target's address
		{Op: BLR, Rd: RegRP, Ra: 19},
		{Op: BV, Ra: 3},
	}, Relocs: []Reloc{{Index: 1, Kind: RelFuncAddr, Sym: "target"}}}
	exe := exeFromFuncs(t, nil, mainFn, target)
	vm := NewVM(exe)
	exit, err := vm.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if exit != 77 {
		t.Errorf("exit = %d, want 77", exit)
	}
}

func TestVMSyscalls(t *testing.T) {
	mainFn := &ObjFunc{Name: "main", Code: []Instr{
		{Op: LDI, Rd: 26, Imm: 'h'},
		{Op: SYS, Imm: SysPutchar},
		{Op: LDI, Rd: 26, Imm: -42},
		{Op: SYS, Imm: SysPutint},
		{Op: LDI, Rd: 26, Imm: 7},
		{Op: SYS, Imm: SysExit},
	}}
	exe := exeFromFuncs(t, nil, mainFn)
	vm := NewVM(exe)
	exit, err := vm.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if exit != 7 {
		t.Errorf("exit = %d, want 7", exit)
	}
	if got := vm.Output(); got != "h-42" {
		t.Errorf("output = %q, want %q", got, "h-42")
	}
}

func TestVMCycleCosts(t *testing.T) {
	// One LDI (1) + one MUL (8) + halting BV (2) = 11 cycles.
	vm, _ := runMain(t,
		Instr{Op: LDI, Rd: 19, Imm: 3},
		Instr{Op: MUL, Rd: RegRet, Ra: 19, Rb: 19},
	)
	if vm.Stats.Cycles != 1+8+2 {
		t.Errorf("cycles = %d, want 11", vm.Stats.Cycles)
	}
	if vm.Stats.Instrs != 3 {
		t.Errorf("instrs = %d, want 3", vm.Stats.Instrs)
	}
}

// TestVMConditionsMatchHolds runs every condition of CMP, CMPI, CB and
// CBI against Cond.Holds, and checks a taken branch costs the taken cycles.
func TestVMConditionsMatchHolds(t *testing.T) {
	pairs := [][2]int32{{-1, 0}, {0, 0}, {1, 0}, {-2147483648, 2147483647}, {7, -7}}
	for _, c := range []Cond{EQ, NE, LT, LE, GT, GE} {
		for _, p := range pairs {
			want := b2i32(c.Holds(p[0], p[1]))
			load := []Instr{{Op: LDI, Rd: 19, Imm: p[0]}, {Op: LDI, Rd: 20, Imm: p[1]}}
			for _, cmp := range []Instr{
				{Op: CMP, Rd: RegRet, Ra: 19, Rb: 20, Cond: c},
				{Op: CMPI, Rd: RegRet, Ra: 19, Imm: p[1], Cond: c},
			} {
				if vm, got := runMain(t, append(load, cmp)...); got != want || vm.Stats.Cycles != 5 {
					t.Errorf("%s %d, %d = %d in %d cycles, want %d in 5", cmp.String(), p[0], p[1], got, vm.Stats.Cycles, want)
				}
			}
			for _, br := range []Instr{
				{Op: CB, Ra: 19, Rb: 20, Cond: c, Target: 5},
				{Op: CBI, Ra: 19, Imm: p[1], Cond: c, Target: 5},
			} {
				// Falls through to ret = 0, or branches to ret = 1.
				code := append(load, br,
					Instr{Op: LDI, Rd: RegRet, Imm: 0}, Instr{Op: BV, Ra: RegRP},
					Instr{Op: LDI, Rd: RegRet, Imm: 1}, Instr{Op: BV, Ra: RegRP})
				vm := NewVM(exeFromFuncs(t, nil, &ObjFunc{Name: "main", Code: code}))
				got, err := vm.Run(100)
				if err != nil {
					t.Fatal(err)
				}
				cycles := uint64(1 + 1 + br.Cycles(want == 1) + 1 + 2)
				if got != want || vm.Stats.Cycles != cycles {
					t.Errorf("%s %d, %d: ret %d in %d cycles, want %d in %d", br.String(), p[0], p[1], got, vm.Stats.Cycles, want, cycles)
				}
			}
		}
	}
}

// TestCondProperties checks Holds/Negate duality over random values.
func TestCondProperties(t *testing.T) {
	conds := []Cond{EQ, NE, LT, LE, GT, GE}
	f := func(a, b int32) bool {
		for _, c := range conds {
			if c.Holds(a, b) == c.Negate().Holds(a, b) {
				return false
			}
		}
		// Trichotomy: exactly one of LT, EQ, GT.
		n := 0
		for _, c := range []Cond{LT, EQ, GT} {
			if c.Holds(a, b) {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
