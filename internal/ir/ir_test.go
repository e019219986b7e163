package ir

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"ipra/internal/wire"
)

func TestBitSetBasics(t *testing.T) {
	s := NewBitSet(200)
	s.Set(0)
	s.Set(63)
	s.Set(64)
	s.Set(199)
	for _, i := range []int{0, 63, 64, 199} {
		if !s.Has(i) {
			t.Errorf("missing %d", i)
		}
	}
	if s.Count() != 4 {
		t.Errorf("count = %d", s.Count())
	}
	s.Clear(63)
	if s.Has(63) || s.Count() != 3 {
		t.Error("clear failed")
	}
}

func TestBitSetProperties(t *testing.T) {
	f := func(xs []uint16, ys []uint16) bool {
		a := NewBitSet(1 << 16)
		b := NewBitSet(1 << 16)
		in := map[int]bool{}
		for _, x := range xs {
			a.Set(int(x))
			in[int(x)] = true
		}
		for _, y := range ys {
			b.Set(int(y))
			in[int(y)] = true
		}
		changed := a.OrWith(b)
		// a must now contain the union.
		for k := range in {
			if !a.Has(k) {
				return false
			}
		}
		if a.Count() != len(in) {
			return false
		}
		// A second OrWith with the same set never changes anything.
		if a.OrWith(b) {
			return false
		}
		_ = changed
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBitSetOps(t *testing.T) {
	a := NewBitSet(300)
	b := NewBitSet(300)
	a.Set(1)
	a.Set(70)
	a.Set(299)
	b.Set(70)
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("Intersects missed shared element 70")
	}
	b.Clear(70)
	b.Set(2)
	if a.Intersects(b) {
		t.Error("Intersects reported disjoint sets as overlapping")
	}
	// Different universe sizes: only the common prefix is compared.
	short := NewBitSet(10)
	short.Set(1)
	if !a.Intersects(short) || !short.Intersects(a) {
		t.Error("Intersects failed across different set lengths")
	}

	var got []int
	a.ForEach(func(i int) { got = append(got, i) })
	want := []int{1, 70, 299}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ForEach = %v, want %v", got, want)
	}
	if el := a.Elems(nil); !reflect.DeepEqual(el, want) {
		t.Errorf("Elems = %v, want %v", el, want)
	}

	c := a.Clone()
	if !c.Equal(a) {
		t.Error("Clone not Equal to source")
	}
	c.Set(5)
	if a.Has(5) {
		t.Error("Clone aliases the source storage")
	}
	if c.Equal(a) {
		t.Error("Equal missed a differing element")
	}

	if a.Empty() {
		t.Error("non-empty set reported Empty")
	}
	if !NewBitSet(300).Empty() {
		t.Error("fresh set not Empty")
	}

	f := NewBitSet(130)
	f.Fill(130)
	if f.Count() != 130 {
		t.Errorf("Fill(130): Count = %d", f.Count())
	}
	for _, i := range []int{0, 63, 64, 127, 128, 129} {
		if !f.Has(i) {
			t.Errorf("Fill(130) missing %d", i)
		}
	}
	f2 := NewBitSet(128)
	f2.Fill(128)
	if f2.Count() != 128 {
		t.Errorf("Fill(128): Count = %d", f2.Count())
	}
}

// buildDiamond creates:
//
//	b0: v1 = 1;           branch v1 -> b1 | b2
//	b1: v2 = v1 + v1;     jump b3
//	b2: v3 = 7;  v2 = v3; jump b3
//	b3: ret v2
func buildDiamond() *Func {
	f := &Func{Name: "diamond"}
	v1, v2, v3 := f.NewReg(), f.NewReg(), f.NewReg()
	f.Blocks = []*Block{
		{ID: 0, Instrs: []Instr{{Op: Const, Dst: v1, Imm: 1}},
			Term: Term{Kind: TermBranch, Cond: v1, True: 1, False: 2}},
		{ID: 1, Instrs: []Instr{{Op: Add, Dst: v2, A: v1, B: v1}},
			Term: Term{Kind: TermJump, True: 3}},
		{ID: 2, Instrs: []Instr{{Op: Const, Dst: v3, Imm: 7}, {Op: Copy, Dst: v2, A: v3}},
			Term: Term{Kind: TermJump, True: 3}},
		{ID: 3, Term: Term{Kind: TermReturn, Val: v2, HasVal: true}},
	}
	f.Recompute()
	return f
}

func TestRecomputeEdges(t *testing.T) {
	f := buildDiamond()
	if !reflect.DeepEqual(f.Blocks[0].Succs, []int{1, 2}) {
		t.Errorf("b0 succs = %v", f.Blocks[0].Succs)
	}
	if !reflect.DeepEqual(f.Blocks[3].Preds, []int{1, 2}) {
		t.Errorf("b3 preds = %v", f.Blocks[3].Preds)
	}
}

func TestValidateAcceptsGood(t *testing.T) {
	if err := buildDiamond().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	f := buildDiamond()
	f.Blocks[1].Term = Term{Kind: TermJump, True: 99}
	if err := f.Validate(); err == nil {
		t.Error("out-of-range target accepted")
	}

	f = buildDiamond()
	f.Blocks[0].Term.Cond = 0
	if err := f.Validate(); err == nil {
		t.Error("branch without condition accepted")
	}

	f = buildDiamond()
	f.Blocks[1].Instrs[0].A = 999
	if err := f.Validate(); err == nil {
		t.Error("out-of-range register accepted")
	}

	f = buildDiamond()
	f.Blocks[2].ID = 7
	if err := f.Validate(); err == nil {
		t.Error("misnumbered block accepted")
	}

	// What a decoded record can carry that the optimizer indexes by.
	for name, mutate := range map[string]func(f *Func){
		"negative register count":      func(f *Func) { f.NextReg = -1 },
		"negative destination":         func(f *Func) { f.Blocks[0].Instrs[0].Dst = -3 },
		"parameter out of range":       func(f *Func) { f.Params = []Reg{f.NextReg + 1} },
		"pinned register out of range": func(f *Func) { f.Pinned = map[Reg]uint8{f.NextReg + 1: 18} },
		"call argument register 0": func(f *Func) {
			f.Blocks[1].Instrs[0] = Instr{Op: Call, Callee: "g", Args: []Reg{0}}
		},
		"unknown terminator kind":  func(f *Func) { f.Blocks[3].Term.Kind = TermReturn + 1 },
		"predecessor out of range": func(f *Func) { f.Blocks[3].Preds[0] = -1 },
		"successor out of range":   func(f *Func) { f.Blocks[0].Succs[1] = 4 },
	} {
		f := buildDiamond()
		mutate(f)
		if err := f.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	m := &Module{Name: "m.mc", Funcs: []*Func{buildDiamond()}, Globals: []*Global{{Name: "g", Size: -4}}}
	if err := m.Validate(); err == nil {
		t.Error("global of negative size accepted")
	}
}

func TestLiveness(t *testing.T) {
	f := buildDiamond()
	lv := ComputeLiveness(f)
	v1, v2 := 1, 2
	// v1 is live into b1 (used there) but dead into b2.
	if !lv.In[1].Has(v1) {
		t.Error("v1 should be live into b1")
	}
	if lv.In[2].Has(v1) {
		t.Error("v1 should be dead into b2")
	}
	// v2 is live into b3 from both sides.
	if !lv.In[3].Has(v2) {
		t.Error("v2 should be live into b3")
	}
	if lv.In[0].Has(v2) {
		t.Error("v2 should not be live into entry")
	}
}

func TestLivenessLoop(t *testing.T) {
	// b0: v1=0 -> b1;  b1: v2=v1+v1; branch v2 -> b1 | b2;  b2: ret v1
	f := &Func{Name: "loop"}
	v1, v2 := f.NewReg(), f.NewReg()
	f.Blocks = []*Block{
		{ID: 0, Instrs: []Instr{{Op: Const, Dst: v1, Imm: 0}}, Term: Term{Kind: TermJump, True: 1}},
		{ID: 1, Instrs: []Instr{{Op: Add, Dst: v2, A: v1, B: v1}},
			Term: Term{Kind: TermBranch, Cond: v2, True: 1, False: 2}},
		{ID: 2, Term: Term{Kind: TermReturn, Val: v1, HasVal: true}},
	}
	f.Recompute()
	lv := ComputeLiveness(f)
	// v1 must be live around the back edge.
	if !lv.Out[1].Has(int(v1)) || !lv.In[1].Has(int(v1)) {
		t.Error("v1 must stay live through the loop")
	}
}

func TestUsesAndDefs(t *testing.T) {
	cases := []struct {
		in   Instr
		uses []Reg
		def  Reg
	}{
		{Instr{Op: Const, Dst: 5, Imm: 1}, nil, 5},
		{Instr{Op: Copy, Dst: 5, A: 3}, []Reg{3}, 5},
		{Instr{Op: Add, Dst: 5, A: 3, B: 4}, []Reg{3, 4}, 5},
		{Instr{Op: Neg, Dst: 5, A: 3}, []Reg{3}, 5},
		{Instr{Op: Load, Dst: 5, Mem: MemRef{Kind: MemGlobal, Sym: "g", Size: 4}}, nil, 5},
		{Instr{Op: Load, Dst: 5, Mem: MemRef{Kind: MemPtr, Base: 7, Size: 4}}, []Reg{7}, 5},
		{Instr{Op: Store, A: 3, Mem: MemRef{Kind: MemPtr, Base: 7, Size: 4}}, []Reg{3, 7}, 0},
		{Instr{Op: Store, A: 3, Mem: MemRef{Kind: MemFrame, Size: 4}}, []Reg{3}, 0},
		{Instr{Op: Call, Dst: 5, Callee: "f", Args: []Reg{1, 2}}, []Reg{1, 2}, 5},
		{Instr{Op: Call, IndirectCall: true, A: 9, Args: []Reg{1}}, []Reg{9, 1}, 0},
		{Instr{Op: AddrGlobal, Dst: 5, Callee: "g"}, nil, 5},
		{Instr{Op: AddrFrame, Dst: 5, Imm: 8}, nil, 5},
	}
	for i, tc := range cases {
		got := tc.in.Uses(nil)
		if !reflect.DeepEqual(got, tc.uses) {
			t.Errorf("case %d (%s): uses = %v, want %v", i, tc.in.Op, got, tc.uses)
		}
		if d := tc.in.Def(); d != tc.def {
			t.Errorf("case %d (%s): def = %v, want %v", i, tc.in.Op, d, tc.def)
		}
	}
}

func TestSideEffects(t *testing.T) {
	if (&Instr{Op: Add}).HasSideEffects() {
		t.Error("add has no side effects")
	}
	for _, op := range []Op{Store, Call, Div, Rem} {
		if !(&Instr{Op: op}).HasSideEffects() {
			t.Errorf("%s must have side effects", op)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := &Module{Name: "m.mc", Funcs: []*Func{buildDiamond()},
		Globals: []*Global{{Name: "g", Size: 4, Defined: true, Init: []byte{1, 2, 3, 4}, Scalar: true}}}
	c := m.Clone()
	c.Funcs[0].Blocks[0].Instrs[0].Imm = 99
	c.Globals[0].Init[0] = 0xff
	if m.Funcs[0].Blocks[0].Instrs[0].Imm == 99 {
		t.Error("clone shares instruction storage")
	}
	if m.Globals[0].Init[0] == 0xff {
		t.Error("clone shares init storage")
	}
}

// TestInstrSize bounds the instruction's size: every pass copies and
// walks instructions, so a field that widens it is memory traffic.
func TestInstrSize(t *testing.T) {
	if s := unsafe.Sizeof(Instr{}); s > 96 {
		t.Errorf("ir.Instr is %d bytes, want at most 96", s)
	}
}

// callFunc is buildDiamond with a parameter and a call in b1.
func callFunc() *Func {
	f := buildDiamond()
	p := f.NewReg()
	f.Params, f.NParams = []Reg{p}, 1
	b := f.Blocks[1]
	b.Instrs = append(b.Instrs, Instr{Op: Call, Callee: "g", Args: []Reg{p, b.Instrs[0].Dst}, ResultVoid: true})
	return f
}

// TestCopiesArePacked checks that Clone and ReadModule copy a function
// exactly, with every slice a block holds capped at its length, so an
// append to one cannot write into its neighbour in the function's slab.
func TestCopiesArePacked(t *testing.T) {
	m := &Module{Name: "m.mc", Funcs: []*Func{callFunc()}}
	e := wire.NewEncoder("test-module", 1)
	AppendModule(e, m)
	d, err := wire.NewDecoder(e.Finish(), "test-module", 1)
	if err != nil {
		t.Fatal(err)
	}
	read := ReadModule(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	for what, got := range map[string]*Module{"Clone": m.Clone(), "ReadModule": read} {
		f := got.Funcs[0]
		if !reflect.DeepEqual(f, m.Funcs[0]) {
			t.Errorf("%s: copy differs:\n%s\nwant\n%s", what, f, m.Funcs[0])
		}
		if cap(f.Params) != len(f.Params) {
			t.Errorf("%s: params: len %d cap %d", what, len(f.Params), cap(f.Params))
		}
		for _, b := range f.Blocks {
			if cap(b.Instrs) != len(b.Instrs) || cap(b.Preds) != len(b.Preds) || cap(b.Succs) != len(b.Succs) {
				t.Errorf("%s: b%d: instrs, preds or succs not capped at their length", what, b.ID)
			}
			for i := range b.Instrs {
				if a := b.Instrs[i].Args; cap(a) != len(a) {
					t.Errorf("%s: b%d[%d]: args len %d cap %d", what, b.ID, i, len(a), cap(a))
				}
			}
		}
	}
}

// TestReadRejectsOutOfRangeCodes checks that an operation or memory kind
// beyond the last one is a decode error, not a value the narrow field
// would wrap.
func TestReadRejectsOutOfRangeCodes(t *testing.T) {
	for _, c := range []struct {
		mutate func(in *Instr)
		want   string
	}{
		{func(in *Instr) { in.Op = LastOp + 1 }, fmt.Sprintf("operation %d out of range", LastOp+1)},
		{func(in *Instr) { in.Op = 255 }, "operation 255 out of range"},
		{func(in *Instr) { in.Mem.Kind = LastMemKind + 1 }, fmt.Sprintf("memory reference kind %d out of range", LastMemKind+1)},
	} {
		f := buildDiamond()
		c.mutate(&f.Blocks[2].Instrs[1])
		e := wire.NewEncoder("test-module", 1)
		AppendModule(e, &Module{Name: "m.mc", Funcs: []*Func{f}})
		d, err := wire.NewDecoder(e.Finish(), "test-module", 1)
		if err != nil {
			t.Fatal(err)
		}
		ReadModule(d)
		if err := d.Finish(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("decode error %v, want one containing %q", err, c.want)
		}
	}
}

func TestSerializeRoundtrip(t *testing.T) {
	f := buildDiamond()
	f.Pinned = map[Reg]uint8{3: 17}
	m := &Module{
		Name:  "m.mc",
		Funcs: []*Func{f},
		Globals: []*Global{{
			Name: "g", Module: "m.mc", Size: 4, Defined: true,
			Init: []byte{9, 8, 7, 6}, Scalar: true,
			Relocs: []Reloc{{Offset: 0, Target: "other"}},
		}},
		ExternFuncs: []string{"putchar"},
	}
	e := wire.NewEncoder("test-module", 1)
	AppendModule(e, m)
	d, err := wire.NewDecoder(e.Finish(), "test-module", 1)
	if err != nil {
		t.Fatal(err)
	}
	got := ReadModule(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name || len(got.Funcs) != 1 || len(got.Globals) != 1 {
		t.Fatalf("roundtrip lost structure: %+v", got)
	}
	if got.Funcs[0].Pinned[3] != 17 {
		t.Error("pinned registers lost in roundtrip")
	}
	if !reflect.DeepEqual(got.Globals[0], m.Globals[0]) {
		t.Errorf("global mismatch: %+v vs %+v", got.Globals[0], m.Globals[0])
	}
	if err := got.Funcs[0].Validate(); err != nil {
		t.Error(err)
	}
}

func TestPin(t *testing.T) {
	f := &Func{Name: "f"}
	r := f.Pin(17)
	if !f.IsPinned(r) {
		t.Error("pinned register not recorded")
	}
	if f.IsPinned(f.NewReg()) {
		t.Error("fresh register reported pinned")
	}
}

func TestNewBitSetsIndependent(t *testing.T) {
	sets := NewBitSets(3, 64)
	for i, s := range sets {
		if len(s) != len(NewBitSet(64)) || cap(s) != len(s) {
			t.Fatalf("set %d: len %d cap %d, want len and cap %d", i, len(s), cap(s), len(NewBitSet(64)))
		}
	}
	sets[1].Fill(65)
	if !sets[0].Empty() || !sets[2].Empty() || sets[1].Count() != 65 {
		t.Errorf("filling one set changed its neighbours: %v", sets)
	}
}
