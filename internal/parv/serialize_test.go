package parv

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testExecutable() *Executable {
	return &Executable{
		Code: []Instr{
			{Op: LDI, Rd: 3, Imm: 7},
			{Op: BL, Target: 0, Sym: "main"},
		},
		Funcs:      []FuncInfo{{Name: "main", Start: 0, End: 2}},
		FuncIdx:    map[string]int{"main": 0},
		Data:       []byte{1, 2, 3, 4},
		GlobalAddr: map[string]int32{"b": 4, "a": 0, "c": 8},
		DataSize:   1 << 16,
		Entry:      0,
	}
}

// TestExecutableEncodingDeterministic is what the incremental build's
// byte-for-byte comparison of on-disk executables rests on: the canonical
// encoding must not inherit gob's randomized map iteration order.
func TestExecutableEncodingDeterministic(t *testing.T) {
	var first bytes.Buffer
	if err := EncodeExecutable(&first, testExecutable()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		var again bytes.Buffer
		if err := EncodeExecutable(&again, testExecutable()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("encode %d differs from the first encode", i)
		}
	}
}

func TestExecutableFileRoundtrip(t *testing.T) {
	exe := testExecutable()
	path := filepath.Join(t.TempDir(), "prog.exe")
	if err := WriteExecutableFile(path, exe); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExecutableFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Code, exe.Code) || !reflect.DeepEqual(got.Funcs, exe.Funcs) {
		t.Error("code/functions lost in roundtrip")
	}
	if !reflect.DeepEqual(got.FuncIdx, exe.FuncIdx) {
		t.Error("function index not rebuilt")
	}
	if !reflect.DeepEqual(got.GlobalAddr, exe.GlobalAddr) {
		t.Error("global addresses lost in roundtrip")
	}
	if !bytes.Equal(got.Data, exe.Data) || got.DataSize != exe.DataSize || got.Entry != exe.Entry {
		t.Error("data image lost in roundtrip")
	}
	// The pc→function table is derived state; it must work after a load.
	if got.FuncOfPC(1) != 0 {
		t.Error("FuncOfPC broken after decode")
	}
	if _, err := ReadExecutableFile(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("missing executable must error")
	}
}

func TestObjectFileRoundtrip(t *testing.T) {
	o := &Object{
		Module: "m.mc",
		Funcs: []*ObjFunc{{
			Name:   "f",
			Code:   []Instr{{Op: LDI, Rd: 3, Imm: 1}},
			Relocs: []Reloc{{Kind: RelCall, Index: 0, Sym: "g"}},
		}},
		Globals: []*DataSym{{Name: "g", Size: 4, Defined: true, Init: []byte{0, 0, 0, 1}}},
	}
	path := filepath.Join(t.TempDir(), "m.obj")
	if err := WriteObjectFile(path, o); err != nil {
		t.Fatal(err)
	}
	got, err := ReadObjectFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, o) {
		t.Errorf("object roundtrip mismatch:\n%+v\n%+v", got, o)
	}
}

// roundTrip encodes exe and decodes the bytes, as mvm does with a file
// and ipra-loadgen with a daemon's response.
func roundTrip(t *testing.T, exe *Executable) (*Executable, error) {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeExecutable(&buf, exe); err != nil {
		t.Fatal(err)
	}
	return DecodeExecutable(buf.Bytes())
}

// TestMalformedExecutables: each of these executables decoded and then
// panicked the simulator. DecodeExecutable rejects a layout the simulator
// cannot index, and an instruction that cannot execute traps when run.
func TestMalformedExecutables(t *testing.T) {
	cases := []struct {
		name      string
		mutate    func(e *Executable)
		decodeErr string // substring of the decode error; "" if accepted
		trap      Trap   // the trap of an accepted executable
	}{
		{"register-out-of-range", func(e *Executable) { e.Code[0].Rd = 200 },
			"", Trap{PC: 0, Func: "main", Msg: "illegal register 200"}},
		{"function-past-code", func(e *Executable) { e.Funcs[0].End = len(e.Code) + 5 },
			"function main spans [0,7)", Trap{}},
		{"negative-data-size", func(e *Executable) { e.DataSize = -8 },
			"data size -8 cannot hold the 4-byte data image", Trap{}},
		{"data-image-too-large", func(e *Executable) { e.DataSize = 2 },
			"data size 2 cannot hold the 4-byte data image", Trap{}},
		{"functions-leave-a-gap", func(e *Executable) { e.Funcs[0].End-- },
			"functions cover 1 of 2 instructions", Trap{}},
		{"function-out-of-order", func(e *Executable) { e.Funcs[0].Start = 1 },
			"function main spans [1,2)", Trap{}},
		{"entry-past-code", func(e *Executable) { e.Entry = 2 },
			"entry 2 is outside the code", Trap{}},
		{"negative-entry", func(e *Executable) { e.Entry = -1 },
			"entry -1 is outside the code", Trap{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exe := testExecutable()
			tc.mutate(exe)
			got, err := roundTrip(t, exe)
			if tc.decodeErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.decodeErr) {
					t.Fatalf("decode error = %v, want %q", err, tc.decodeErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			_, err = NewVM(got).Run(100)
			trap, ok := err.(*Trap)
			if !ok || *trap != tc.trap {
				t.Fatalf("run = %v, want trap %+v", err, tc.trap)
			}
		})
	}
}

// TestIllegalInstructionsTrapWhenExecuted: decoding never fails on an
// instruction; one that cannot execute traps only if it runs, counting in
// Instrs but not in Cycles.
func TestIllegalInstructionsTrapWhenExecuted(t *testing.T) {
	cases := []struct {
		in  Instr
		msg string
	}{
		{Instr{Op: Op(200)}, "illegal opcode op(200)"},
		{Instr{Op: ADD, Rd: 19, Ra: 40, Rb: 1}, "illegal register 40"},
		{Instr{Op: CB, Ra: 19, Rb: 20, Cond: Cond(9)}, "illegal condition 9"},
		{Instr{Op: LDW, Rd: 19, Ra: RegDP, MemSize: 3}, "illegal access width 3"},
		{Instr{Op: STW, Ra: RegDP, Rb: 19, MemSize: 0}, "illegal access width 0"},
		{Instr{Op: BL, Rd: RegRP, Target: 99}, "call to bad address 0x40000063"},
		{Instr{Op: SYS, Imm: 42}, "unknown syscall 42"},
	}
	for _, tc := range cases {
		t.Run(tc.msg, func(t *testing.T) {
			// Never executed: the program returns before reaching it.
			skip := exeFromFuncs(t, nil, &ObjFunc{Name: "main", Code: []Instr{
				{Op: LDI, Rd: RegRet, Imm: 5}, {Op: BV, Ra: RegRP}, tc.in,
			}})
			if exit, err := NewVM(skip).Run(100); err != nil || exit != 5 {
				t.Fatalf("run = %d, %v; want 5, nil", exit, err)
			}
			hit := exeFromFuncs(t, nil, &ObjFunc{Name: "main", Code: []Instr{
				{Op: LDI, Rd: 19, Imm: 1}, tc.in, {Op: BV, Ra: RegRP},
			}})
			runTrapCase(t, hit, trapCase{trap: Trap{PC: 1, Func: "main", Msg: tc.msg}, instrs: 2, cycles: 1})
		})
	}
}

// TestVMDoesNotMutateExecutable runs one decoded executable on several
// machines at once (meaningful under -race) and checks its encoding is
// unchanged.
func TestVMDoesNotMutateExecutable(t *testing.T) {
	exe, err := roundTrip(t, testExecutable())
	if err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := EncodeExecutable(&before, exe); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			vm := NewVM(exe)
			vm.ProfileEdges = true
			// The program calls itself until the budget runs out.
			if _, err := vm.Run(1000); err == nil || vm.Stats.Calls == 0 {
				t.Errorf("run = %v after %d calls, want the instruction limit", err, vm.Stats.Calls)
			}
			vm.Profile()
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	var after bytes.Buffer
	if err := EncodeExecutable(&after, exe); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) || !reflect.DeepEqual(exe.Funcs, testExecutable().Funcs) {
		t.Error("running the executable changed it")
	}
}
