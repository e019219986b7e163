package irgen_test

import (
	"testing"

	"ipra/internal/benchprogs"
	"ipra/internal/ir"
	"ipra/internal/irgen"
	"ipra/internal/minic/parser"
	"ipra/internal/minic/sem"
)

func gen(t *testing.T, src string) *ir.Module {
	t.Helper()
	f, err := parser.ParseFile("m.mc", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := sem.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	irm, err := irgen.Generate(mod)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range irm.Funcs {
		if err := fn.Validate(); err != nil {
			t.Fatalf("invalid IR: %v\n%s", err, fn)
		}
	}
	return irm
}

func fnOf(t *testing.T, m *ir.Module, name string) *ir.Func {
	t.Helper()
	f := m.FuncByName(name)
	if f == nil {
		t.Fatalf("no function %s", name)
	}
	return f
}

func TestSingletonFlags(t *testing.T) {
	m := gen(t, `
int scalar;
int arr[4];
struct S { int x; };
struct S s;
int f(int *p) {
	scalar = 1;       // singleton
	arr[1] = 2;       // not (array element)
	s.x = 3;          // not (struct member)
	*p = 4;           // not (pointer)
	return scalar;    // singleton
}
`)
	f := fnOf(t, m, "f")
	var singles, nonSingles int
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.Load && in.Op != ir.Store {
				continue
			}
			if in.Mem.Singleton {
				singles++
			} else {
				nonSingles++
			}
		}
	}
	if singles != 2 {
		t.Errorf("singleton accesses = %d, want 2\n%s", singles, f)
	}
	if nonSingles != 3 {
		t.Errorf("non-singleton accesses = %d, want 3\n%s", nonSingles, f)
	}
}

func TestLoopDepthAnnotations(t *testing.T) {
	m := gen(t, `
int g;
void f(int n) {
	int i;
	int j;
	g = 1;
	for (i = 0; i < n; i++) {
		for (j = 0; j < n; j++) {
			g = g + 1;
		}
	}
}
`)
	f := fnOf(t, m, "f")
	maxDepth := 0
	for _, b := range f.Blocks {
		if b.LoopDepth > maxDepth {
			maxDepth = b.LoopDepth
		}
	}
	if maxDepth != 2 {
		t.Errorf("max loop depth = %d, want 2\n%s", maxDepth, f)
	}
}

func TestScalarLocalsAvoidMemory(t *testing.T) {
	m := gen(t, `
int f(int a, int b) {
	int t = a + b;
	int u = t * 2;
	return u - a;
}
`)
	f := fnOf(t, m, "f")
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Load || in.Op == ir.Store {
				t.Errorf("scalar locals hit memory: %s", in)
			}
		}
	}
	if f.FrameSize != 0 {
		t.Errorf("frame size = %d, want 0", f.FrameSize)
	}
}

func TestEscapedLocalGetsFrameSlot(t *testing.T) {
	m := gen(t, `
void setit(int *p) { *p = 9; }
int f() {
	int x = 0;
	setit(&x);
	return x;
}
`)
	f := fnOf(t, m, "f")
	if f.FrameSize < 4 {
		t.Errorf("escaped local has no frame storage (frame=%d)", f.FrameSize)
	}
	hasAddrFrame := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.AddrFrame {
				hasAddrFrame = true
			}
		}
	}
	if !hasAddrFrame {
		t.Error("no AddrFrame for &x")
	}
}

func TestShortCircuitControlFlow(t *testing.T) {
	m := gen(t, `
int side;
int check(int v) { side++; return v; }
int f(int a, int b) {
	if (check(a) && check(b)) { return 1; }
	return 0;
}
`)
	f := fnOf(t, m, "f")
	// Two call sites (one per operand), each on its own path.
	calls := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.Call {
				calls++
			}
		}
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2", calls)
	}
	if len(f.Blocks) < 4 {
		t.Errorf("short-circuit needs multiple blocks, got %d", len(f.Blocks))
	}
}

func TestIndirectCallLowering(t *testing.T) {
	m := gen(t, `
int a(int x) { return x; }
int (*fp)(int);
int f() {
	fp = a;
	return fp(7);
}
`)
	f := fnOf(t, m, "f")
	indirect := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Call && in.IndirectCall {
				indirect++
			}
		}
	}
	if indirect != 1 {
		t.Errorf("indirect calls = %d, want 1\n%s", indirect, f)
	}
}

func TestGlobalsEmitted(t *testing.T) {
	m := gen(t, `
int a = 3;
static char tag = 'x';
extern int other;
char *s = "hey";
int arr[2] = {7, 8};
int main() { return a + arr[0] + other; }
`)
	byName := map[string]*ir.Global{}
	for _, g := range m.Globals {
		byName[g.Name] = g
	}
	if g := byName["a"]; g == nil || !g.Defined || !g.Scalar || g.Size != 4 {
		t.Errorf("global a: %+v", g)
	}
	if g := byName["m.mc:tag"]; g == nil || !g.Static || g.Init[0] != 'x' {
		t.Errorf("static tag: %+v", g)
	}
	if g := byName["other"]; g == nil || g.Defined {
		t.Errorf("extern other: %+v", g)
	}
	if g := byName["s"]; g == nil || len(g.Relocs) != 1 {
		t.Errorf("string pointer: %+v", g)
	}
	// The interned string itself.
	found := false
	for _, g := range m.Globals {
		if len(g.Init) == 4 && string(g.Init) == "hey\x00" {
			found = true
		}
	}
	if !found {
		t.Error("interned string literal missing from globals")
	}
}

func TestBreakContinueOutsideLoopRejected(t *testing.T) {
	f, err := parser.ParseFile("m.mc", []byte(`int main() { break; return 0; }`))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := sem.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := irgen.Generate(mod); err == nil {
		t.Error("break outside loop accepted")
	}
}

// TestAllBenchmarkProgramsLower pushes every Table 3 analog through the
// front end and validates the IR of every function. Each block's
// instructions must be capped at their length: blocks share one slab per
// function, and an append to one must not write into the next.
func TestAllBenchmarkProgramsLower(t *testing.T) {
	for _, bm := range benchprogs.All() {
		files, err := bm.Sources()
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(file.Name, file.Text)
			if err != nil {
				t.Fatalf("%s: %v", file.Name, err)
			}
			mod, err := sem.Check(f)
			if err != nil {
				t.Fatalf("%s: %v", file.Name, err)
			}
			irm, err := irgen.Generate(mod)
			if err != nil {
				t.Fatalf("%s: %v", file.Name, err)
			}
			for _, fn := range irm.Funcs {
				if err := fn.Validate(); err != nil {
					t.Errorf("%s: %v", file.Name, err)
				}
				for _, b := range fn.Blocks {
					if cap(b.Instrs) != len(b.Instrs) {
						t.Errorf("%s: %s: b%d: %d instructions, capacity %d", file.Name, fn.Name, b.ID, len(b.Instrs), cap(b.Instrs))
					}
				}
			}
		}
	}
}
