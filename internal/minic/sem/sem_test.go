package sem

import (
	"encoding/binary"
	"strings"
	"testing"

	"ipra/internal/minic/ast"
	"ipra/internal/minic/parser"
	"ipra/internal/minic/types"
)

func check(t *testing.T, src string) *Module {
	t.Helper()
	f, err := parser.ParseFile("t.mc", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return m
}

func checkErr(t *testing.T, src, wantSub string) {
	t.Helper()
	f, err := parser.ParseFile("t.mc", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Check(f)
	if err == nil {
		t.Fatalf("expected semantic error containing %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err, wantSub)
	}
}

func TestGlobalSymbols(t *testing.T) {
	m := check(t, `
int g = 7;
static int s = 9;
extern int e;
char buf[16];
`)
	g := m.GlobalByName("g")
	if g == nil || g.QualName != "g" || g.Static || g.Extern {
		t.Errorf("g: %+v", g)
	}
	if binary.LittleEndian.Uint32(g.Init) != 7 {
		t.Errorf("g init = %v", g.Init)
	}
	s := m.GlobalByName("s")
	if s == nil || s.QualName != "t.mc:s" || !s.Static {
		t.Errorf("static s not module-qualified: %+v", s)
	}
	e := m.GlobalByName("e")
	if e == nil || !e.Extern || e.Init != nil {
		t.Errorf("extern e: %+v", e)
	}
	buf := m.GlobalByName("buf")
	if buf.Type.Size() != 16 {
		t.Errorf("buf size = %d", buf.Type.Size())
	}
}

func TestStaticFunctionQualified(t *testing.T) {
	m := check(t, `static int helper() { return 1; } int main() { return helper(); }`)
	h := m.FuncByName("helper")
	if h.Sym.QualName != "t.mc:helper" {
		t.Errorf("static function not qualified: %q", h.Sym.QualName)
	}
	if m.FuncByName("main").Sym.QualName != "main" {
		t.Error("non-static function should not be qualified")
	}
}

func TestAddrTakenFlags(t *testing.T) {
	m := check(t, `
int plain;
int aliased;
int arrow[4];
int f(int x) { return x; }
int (*fp)(int);

int main() {
	int *p = &aliased;
	fp = f;
	arrow[0] = 1;
	plain = *p;
	return plain;
}
`)
	if m.GlobalByName("plain").AddrTaken {
		t.Error("plain should not be address-taken")
	}
	if !m.GlobalByName("aliased").AddrTaken {
		t.Error("&aliased not recorded")
	}
	if !m.FuncByName("f").Sym.AddrTaken {
		t.Error("f used as value should be address-taken (indirect target)")
	}
}

func TestAddrOfElementAliasesBase(t *testing.T) {
	m := check(t, `
struct S { int a; int b; };
struct S s;
int arr[4];
int main() {
	int *p = &s.a;
	int *q = &arr[2];
	return *p + *q;
}
`)
	if !m.GlobalByName("s").AddrTaken || !m.GlobalByName("arr").AddrTaken {
		t.Error("address of member/element must alias the base symbol")
	}
}

func TestInitializerRelocs(t *testing.T) {
	m := check(t, `
int target;
int f(int x) { return x; }
int *ptr = &target;
int (*handler)(int) = f;
char *msg = "hello";
`)
	p := m.GlobalByName("ptr")
	if len(p.Relocs) != 1 || p.Relocs[0].Target != "target" {
		t.Errorf("ptr relocs: %+v", p.Relocs)
	}
	h := m.GlobalByName("handler")
	if len(h.Relocs) != 1 || h.Relocs[0].Target != "f" {
		t.Errorf("handler relocs: %+v", h.Relocs)
	}
	msg := m.GlobalByName("msg")
	if len(msg.Relocs) != 1 || !strings.Contains(msg.Relocs[0].Target, ".str") {
		t.Errorf("msg relocs: %+v", msg.Relocs)
	}
	if len(m.Strings) != 1 || string(m.Strings[0].Init) != "hello\x00" {
		t.Errorf("interned strings: %+v", m.Strings)
	}
}

func TestConstInitializers(t *testing.T) {
	m := check(t, `
int a = 2 + 3 * 4;
int b = -(1 << 4);
int c = sizeof(int) + sizeof(char*);
int d = 'A';
char e = 300;  // truncates
int arr[3] = {1, 1+1, 1|2};
`)
	want32 := func(name string, v uint32) {
		g := m.GlobalByName(name)
		if got := binary.LittleEndian.Uint32(g.Init); got != v {
			t.Errorf("%s = %d, want %d", name, int32(got), int32(v))
		}
	}
	want32("a", 14)
	want32("b", uint32(0xfffffff0))
	want32("c", 8)
	want32("d", 65)
	if m.GlobalByName("e").Init[0] != 44 { // 300 & 255
		t.Errorf("char e = %d", m.GlobalByName("e").Init[0])
	}
	arr := m.GlobalByName("arr")
	for i, want := range []uint32{1, 2, 3} {
		if got := binary.LittleEndian.Uint32(arr.Init[i*4:]); got != want {
			t.Errorf("arr[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestArrayLengthInference(t *testing.T) {
	m := check(t, `
int xs[] = {1, 2, 3, 4, 5};
char s[] = "abc";
`)
	if m.GlobalByName("xs").Type.Size() != 20 {
		t.Errorf("xs size = %d", m.GlobalByName("xs").Type.Size())
	}
	if m.GlobalByName("s").Type.Size() != 4 { // "abc" + NUL
		t.Errorf("s size = %d", m.GlobalByName("s").Type.Size())
	}
}

func TestImplicitFunctionDeclaration(t *testing.T) {
	m := check(t, `int main() { return external_thing(1, 2, 3); }`)
	f := m.FuncByName("external_thing")
	if f == nil || !f.Sym.Extern {
		t.Fatal("implicit declaration missing")
	}
	if !f.FType.Variadic {
		t.Error("implicit declaration should be variadic")
	}
}

func TestExprTypes(t *testing.T) {
	m := check(t, `
struct P { int x; char tag; };
struct P ps[4];
int g;
char c;
int main() {
	int *ip = &g;
	return ps[1].x + c + *ip;
}
`)
	// Every expression of main is typed, on the expression itself.
	found := map[string]bool{}
	for _, e := range exprsOf(m.FuncByName("main").Decl.Body) {
		ty := e.ExprType()
		if ty == nil {
			t.Errorf("%s: %T has no type", e.Pos(), e)
			continue
		}
		found[ty.String()] = true
	}
	for _, want := range []string{"int", "int*", "char", "struct P"} {
		if !found[want] {
			t.Errorf("no expression typed %s", want)
		}
	}
}

// exprsOf returns every expression under s, operands before operators.
func exprsOf(s ast.Stmt) []ast.Expr {
	var out []ast.Expr
	var expr func(e ast.Expr)
	expr = func(e ast.Expr) {
		if e == nil {
			return
		}
		switch e := e.(type) {
		case *ast.Unary:
			expr(e.X)
		case *ast.Postfix:
			expr(e.X)
		case *ast.Binary:
			expr(e.X)
			expr(e.Y)
		case *ast.Assign:
			expr(e.LHS)
			expr(e.RHS)
		case *ast.Cond:
			expr(e.C)
			expr(e.Then)
			expr(e.Else)
		case *ast.Call:
			expr(e.Fun)
			for _, a := range e.Args {
				expr(a)
			}
		case *ast.Index:
			expr(e.X)
			expr(e.Idx)
		case *ast.Member:
			expr(e.X)
		}
		out = append(out, e)
	}
	var stmt func(s ast.Stmt)
	stmt = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.Block:
			for _, x := range s.Stmts {
				stmt(x)
			}
		case *ast.ExprStmt:
			expr(s.X)
		case *ast.If:
			expr(s.Cond)
			stmt(s.Then)
			if s.Else != nil {
				stmt(s.Else)
			}
		case *ast.While:
			expr(s.Cond)
			stmt(s.Body)
		case *ast.DoWhile:
			stmt(s.Body)
			expr(s.Cond)
		case *ast.For:
			if s.Init != nil {
				stmt(s.Init)
			}
			expr(s.Cond)
			expr(s.Post)
			stmt(s.Body)
		case *ast.Return:
			expr(s.X)
		case *ast.LocalDecl:
			for _, item := range s.Items {
				expr(item.Init)
				for _, x := range item.InitList {
					expr(x)
				}
			}
		}
	}
	stmt(s)
	return out
}

func TestSemanticErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`int main() { return x; }`, "undefined"},
		{`int x; char x;`, "conflicting"},
		{`int f() { return 1; } int f() { return 2; }`, "redefined"},
		{`int main() { int y; y = "str"; return y; }`, "cannot assign"},
		{`int main() { 5 = 6; return 0; }`, "lvalue"},
		{`struct S { int x; }; int main() { struct S s; return s.nope; }`, "no field"},
		{`int main() { int a; return a.x; }`, "requires a struct"},
		{`int main() { int a; return *a; }`, "dereference"},
		{`void v() { } int main() { int x; x = 1; return v() + x; }`, "invalid operands"},
		{`int f(int a) { return a; } int main() { return f(1, 2); }`, "number of arguments"},
		{`int f(int a) { return a; } int main() { return f("s"); }`, "argument 1"},
		{`struct S { int x; }; struct S f() { }`, "struct return"},
		{`struct S { int x; }; int f(struct S s) { return 0; }`, "struct parameter"},
		{`struct S { struct S inner; };`, "cannot contain itself"},
		{`int main() { break; return 0; }`, ""}, // diagnosed by irgen, not sem
		{`void f() { return 5; }`, "void function"},
		{`int f() { return; }`, "missing return value"},
		{`int a[2]; int b[2]; int main() { a = b; return 0; }`, "array"},
	}
	for _, tc := range cases {
		if tc.want == "" {
			continue
		}
		t.Run(tc.want, func(t *testing.T) {
			checkErr(t, tc.src, tc.want)
		})
	}
}

// TestDuplicateGlobalSameType checks the C-style tentative-definition
// tolerance: re-declaring with the same type is accepted.
func TestDuplicateGlobalSameType(t *testing.T) {
	m := check(t, `extern int g; int g = 4;`)
	g := m.GlobalByName("g")
	if g.Extern {
		t.Error("definition should override extern")
	}
	if binary.LittleEndian.Uint32(g.Init) != 4 {
		t.Error("initializer lost")
	}
}

func TestConflictingTypesRejected(t *testing.T) {
	checkErr(t, `extern int g; char g;`, "conflicting")
	checkErr(t, `int f(int x); int f() { return 0; }`, "conflicting")
}

func TestLocalScoping(t *testing.T) {
	m := check(t, `
int x = 1;
int main() {
	int x = 2;
	{
		int x = 3;
		x = x + 1;
	}
	return x;
}
`)
	fn := m.FuncByName("main")
	if len(fn.Locals) != 2 {
		t.Errorf("got %d locals, want 2 (shadowing)", len(fn.Locals))
	}
}

func TestPointerArithmeticTyping(t *testing.T) {
	m := check(t, `
int arr[8];
int main() {
	int *p = arr;
	int *q = p + 3;
	int d = q - p;
	return d + *q;
}
`)
	// No errors is the main assertion; also check p+3 stayed a pointer.
	found := false
	for _, e := range exprsOf(m.FuncByName("main").Decl.Body) {
		if types.IsPointer(e.ExprType()) {
			found = true
		}
	}
	if !found {
		t.Error("no pointer-typed expressions recorded")
	}
}
