package ipra

import (
	"bytes"
	"context"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"ipra/internal/cache"
	"ipra/internal/core"
	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/progen"
	"ipra/internal/summary"
)

var updateGoldens = flag.Bool("update", false, "rewrite the golden wire fixtures under testdata/wire and the replay's explain text under testdata/phase2_explain")

// The golden fixtures pin the wire encoding of every serialized artifact
// kind, one file per kind named with its version. A fixture mismatch means the encoding changed shape:
// either revert the change, or bump that kind's wire version AND the
// incremental store's FormatVersion, then regenerate with
// `go test -run TestWireGolden -update`.
const wireGoldenDir = "testdata/wire"

// goldenModule builds a module touching every encoded field: pinned
// registers, loop depths, terminators of all kinds, every memory-reference
// kind, direct and indirect calls, defined/extern/static globals with and
// without init data and relocs, and extern function references.
func goldenModule() *ir.Module {
	f := &ir.Func{
		Name:      "m:fib",
		Module:    "m",
		NParams:   1,
		Params:    []ir.Reg{64},
		NextReg:   70,
		FrameSize: 16,
		Pinned:    map[ir.Reg]uint8{66: 5, 65: 3},
		Blocks: []*ir.Block{
			{
				ID: 0,
				Instrs: []ir.Instr{
					{Op: ir.Const, Dst: 65, Imm: -2},
					{Op: ir.Load, Dst: 66, Mem: ir.MemRef{Kind: ir.MemGlobal, Sym: "m:g", Off: 4, Size: 4, Singleton: true}},
					{Op: ir.Store, A: 66, Mem: ir.MemRef{Kind: ir.MemFrame, Off: 8, Size: 2}},
					{Op: ir.Load, Dst: 67, Mem: ir.MemRef{Kind: ir.MemPtr, Base: 66, Off: -4, Size: 1}},
				},
				Term:  ir.Term{Kind: ir.TermBranch, Cond: 67, True: 1, False: 2},
				Succs: []int{1, 2},
			},
			{
				ID:        1,
				LoopDepth: 2,
				Instrs: []ir.Instr{
					{Op: ir.Call, Dst: 68, Callee: "m:fib", Args: []ir.Reg{65}},
					{Op: ir.Call, IndirectCall: true, A: 68, Args: []ir.Reg{65, 66}, ResultVoid: true},
				},
				Term:  ir.Term{Kind: ir.TermJump, True: 2},
				Preds: []int{0},
				Succs: []int{2},
			},
			{
				ID:    2,
				Term:  ir.Term{Kind: ir.TermReturn, Val: 68, HasVal: true},
				Preds: []int{0, 1},
			},
		},
	}
	leaf := &ir.Func{
		Name: "m:leaf", Module: "m", Static: true, ResultVoid: true,
		NextReg: 64,
		Blocks:  []*ir.Block{{ID: 0, Term: ir.Term{Kind: ir.TermReturn}}},
	}
	return &ir.Module{
		Name:  "m",
		Funcs: []*ir.Func{f, leaf},
		Globals: []*ir.Global{
			{Name: "m:g", Module: "m", Size: 8, Init: []byte{1, 0, 2, 0, 0, 0, 0, 0},
				Relocs:  []ir.Reloc{{Offset: 4, Target: "m:g", Addend: -4}},
				Defined: true, Scalar: false},
			{Name: "m:s", Module: "m", Size: 4, Init: []byte{}, Defined: true, Static: true, Scalar: true},
			{Name: "ext:v", Module: "ext", Size: 4, Scalar: true, AddrTaken: true}, // nil Init: extern
		},
		ExternFuncs: []string{"ext:f", "putint"},
	}
}

func goldenSummary() *summary.ModuleSummary {
	return &summary.ModuleSummary{
		Module: "m",
		Procs: []summary.ProcRecord{
			{
				Name: "m:fib", Module: "m",
				GlobalRefs: []summary.GlobalRef{
					{Name: "m:g", Freq: 100, Reads: 60, Writes: 40},
					{Name: "ext:v", Freq: 3, Reads: 3, Aliased: true},
				},
				Calls:              []summary.CallSite{{Callee: "m:fib", Freq: 10}, {Callee: "m:leaf", Freq: 1}},
				AddrTakenProcs:     []string{"m:leaf"},
				MakesIndirectCalls: true,
				IndirectCallFreq:   10,
				CalleeSavesNeeded:  4,
				CalleeSavesBase:    2,
				CallerSavesNeeded:  3,
			},
			{Name: "m:leaf", Module: "m", Static: true},
		},
		Globals: []summary.GlobalInfo{
			{Name: "m:g", Module: "m", Size: 8, Defined: true},
			{Name: "m:s", Module: "m", Size: 4, Defined: true, Static: true, Scalar: true},
		},
	}
}

func goldenObject() *parv.Object {
	return &parv.Object{
		Module: "m",
		Funcs: []*parv.ObjFunc{
			{
				Name: "m:fib",
				Code: []parv.Instr{
					{Op: parv.LDI, Rd: 19, Imm: -7},
					{Op: parv.LDW, Rd: 20, Ra: 27, Imm: 4, MemSize: 4, Singleton: true, Sym: "m:g"},
					{Op: parv.BL, Target: -1, Sym: "m:leaf"},
				},
				Relocs: []parv.Reloc{{Index: 2, Kind: parv.RelCall, Sym: "m:leaf", Addend: 0}},
			},
			{Name: "m:leaf", Code: []parv.Instr{{Op: parv.BV}}},
		},
		Globals: []*parv.DataSym{
			{Name: "m:g", Size: 8, Init: []byte{1, 2, 3, 4, 0, 0, 0, 0}, Defined: true,
				DataRelocs: []parv.DataReloc{{Offset: 4, Target: "m:s", Addend: 2}}},
			{Name: "m:s", Size: 4, Init: []byte{}, Defined: true},
			{Name: "ext:v", Size: 4}, // nil Init: referenced, not defined
		},
	}
}

func goldenExe() *parv.Executable {
	return &parv.Executable{
		Code: []parv.Instr{
			{Op: parv.LDI, Rd: 19, Imm: 42},
			{Op: parv.BL, Target: 0, Sym: "m:leaf"},
			{Op: parv.BV},
		},
		Funcs:      []parv.FuncInfo{{Name: "m:fib", Start: 0, End: 2}, {Name: "m:leaf", Start: 2, End: 3}},
		FuncIdx:    map[string]int{"m:fib": 0, "m:leaf": 1},
		Data:       []byte{1, 2, 3, 4, 0, 0, 0, 0},
		GlobalAddr: map[string]int32{"m:g": 0, "m:s": 8},
		DataSize:   1 << 16,
		Entry:      0,
	}
}

// goldenFixtures returns the canonical encoding of each fixture value,
// keyed by its fixture file name.
func goldenFixtures(t testing.TB) map[string][]byte {
	entry := cache.EncodeEntry(goldenModule(), goldenSummary())
	var exeBuf bytes.Buffer
	if err := parv.EncodeExecutable(&exeBuf, goldenExe()); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"cache-entry-v2.bin": entry,
		"object-v1.bin":      parv.EncodeObject(goldenObject()),
		"exe-v1.bin":         exeBuf.Bytes(),
	}
}

// TestWireGolden pins the exact bytes of every wire artifact kind. A
// failure here means an encoding changed: bump the wire version of the
// affected kind and the incremental FormatVersion, then run with -update.
func TestWireGolden(t *testing.T) {
	fixtures := goldenFixtures(t)
	if *updateGoldens {
		if err := os.MkdirAll(wireGoldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, got := range fixtures {
		path := filepath.Join(wireGoldenDir, name)
		if *updateGoldens {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update)", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoding changed (%d bytes, golden %d). If intentional, bump the wire version and incremental.FormatVersion, then refresh with -update.",
				name, len(got), len(want))
		}
	}
}

// TestWireGoldenDecodes proves the decoders reconstruct the exact fixture
// values from the pinned bytes — i.e. bytes written by a past compiler
// process (whenever the fixtures were generated) still decode to the same
// values in this one.
func TestWireGoldenDecodes(t *testing.T) {
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(wireGoldenDir, name))
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		return data
	}

	em, es, err := cache.DecodeEntry(read("cache-entry-v2.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(em, goldenModule()) || !reflect.DeepEqual(es, goldenSummary()) {
		t.Error("cache entry fixture decodes to a different value")
	}

	o, err := parv.DecodeObject(read("object-v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o, goldenObject()) {
		t.Error("object fixture decodes to a different value")
	}

	exe, err := parv.DecodeExecutable(read("exe-v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exe, goldenExe()) {
		t.Error("executable fixture decodes to a different value")
	}
}

// wireChildEnv triggers the cross-process child: when set, the test binary
// encodes the fixtures into the named directory and exits.
const wireChildEnv = "IPRA_WIRE_GOLDEN_CHILD_DIR"

// TestWireCrossProcess re-executes the test binary as a child process and
// checks the child's encodings byte-equal this process's. Together with
// the golden files it proves byte-stability does not depend on any
// process state (gob's type-registration order was the counterexample
// this wire format replaced).
func TestWireCrossProcess(t *testing.T) {
	if dir := os.Getenv(wireChildEnv); dir != "" {
		for name, data := range goldenFixtures(t) {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestWireCrossProcess$", "-test.count=1")
	cmd.Env = append(os.Environ(), wireChildEnv+"="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	for name, want := range goldenFixtures(t) {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: child process produced different bytes", name)
		}
	}
}

// seedWireFuzz seeds a decoder fuzz target with the fixture bytes plus
// every truncation of them and a few corruptions.
func seedWireFuzz(f *testing.F, fixture string) {
	data, err := os.ReadFile(filepath.Join(wireGoldenDir, fixture))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if n >= 0 && n <= len(data) {
			f.Add(data[:n])
		}
	}
	for _, i := range []int{0, len(data) / 3, len(data) - 1} {
		bad := bytes.Clone(data)
		bad[i] ^= 0xff
		f.Add(bad)
	}
}

// Every decoder must reject malformed input with an error — never a panic
// or runtime fault — and anything it accepts must re-encode to a stable
// canonical form.

// FuzzWireCacheEntryDecode also pins the module encoding's canonical
// form: the module has no wire kind of its own, only this one. An entry
// that decodes is a phase-1 record mcc -phase2 may compile, so Phase2
// must turn its module into an object or an error under an empty
// database.
func FuzzWireCacheEntryDecode(f *testing.F) {
	seedWireFuzz(f, "cache-entry-v2.bin")
	// An operation code beyond ir.LastOp, which the decoder must reject
	// rather than wrap into the instruction's one-byte field.
	data, err := os.ReadFile(filepath.Join(wireGoldenDir, "cache-entry-v2.bin"))
	if err != nil {
		f.Fatal(err)
	}
	m, ms, err := cache.DecodeEntry(data)
	if err != nil {
		f.Fatal(err)
	}
	for _, fn := range m.Funcs {
		if len(fn.Blocks[0].Instrs) > 0 {
			fn.Blocks[0].Instrs[0].Op = ir.LastOp + 1
			break
		}
	}
	f.Add(cache.EncodeEntry(m, ms))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ms, err := cache.DecodeEntry(data)
		if err != nil {
			return
		}
		enc := cache.EncodeEntry(m, ms)
		m2, ms2, err := cache.DecodeEntry(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if !bytes.Equal(cache.EncodeEntry(m2, ms2), enc) {
			t.Fatal("canonical encoding is not a fixpoint")
		}
		Phase2(m, pdb.New())
	})
}

func FuzzWireObjectDecode(f *testing.F) {
	seedWireFuzz(f, "object-v1.bin")
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := parv.DecodeObject(data)
		if err != nil {
			return
		}
		enc := parv.EncodeObject(o)
		o2, err := parv.DecodeObject(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if !bytes.Equal(parv.EncodeObject(o2), enc) {
			t.Fatal("canonical encoding is not a fixpoint")
		}
	})
}

// FuzzWireExecutableDecode also runs every executable the decoder accepts:
// the simulator must reach an exit or a *parv.Trap, never a panic.
func FuzzWireExecutableDecode(f *testing.F) {
	seedWireFuzz(f, "exe-v1.bin")
	// Executables that once decoded and then panicked the simulator.
	for _, mutate := range []func(e *parv.Executable){
		func(e *parv.Executable) { e.Code[0].Rd = 200 },
		func(e *parv.Executable) { e.Funcs[1].End = 99 },
		func(e *parv.Executable) { e.DataSize = -1 },
	} {
		exe := goldenExe()
		mutate(exe)
		var buf bytes.Buffer
		if err := parv.EncodeExecutable(&buf, exe); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		exe, err := parv.DecodeExecutable(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := parv.EncodeExecutable(&buf, exe); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		if _, err := parv.DecodeExecutable(buf.Bytes()); err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		vm := parv.NewVM(exe)
		vm.ProfileEdges = true
		if _, err := vm.Run(10_000); err != nil {
			if _, ok := err.(*parv.Trap); !ok {
				t.Fatalf("run failed with %T, want *parv.Trap: %v", err, err)
			}
		}
		vm.Profile()
	})
}

// FuzzAnalyzerStateDecode feeds arbitrary bytes to core.DecodeState, the
// analyzer-state codec the benchmark's per-layer probe decodes. Decoding
// must return a state or an error, never panic.
func FuzzAnalyzerStateDecode(f *testing.F) {
	// The seed state's program is small enough for many executions per
	// second and still has indirect calls, recursion, statics, webs and
	// clusters.
	cfg := progen.Config{Seed: 5, Modules: 3, ProcsPerModule: 6, Globals: 16,
		SubsystemSize: 3, Recursion: true, IndirectCalls: true, Statics: true, LoopIters: 2}
	sums := phase1Summaries(f, cfg)
	opt := core.DefaultOptions()
	ctx := context.Background()
	res, err := core.Analyze(ctx, sums, opt)
	if err != nil {
		f.Fatal(err)
	}
	data := core.NewState(res, sums, opt).Encode()
	f.Add(data)
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		f.Add(data[:n])
	}
	for _, i := range []int{0, len(data) / 3, len(data) / 2, 2 * len(data) / 3, len(data) - 1} {
		bad := bytes.Clone(data)
		bad[i] ^= 0xff
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if st, err := core.DecodeState(data); err == nil && st == nil {
			t.Fatal("DecodeState returned neither a state nor an error")
		}
	})
}
