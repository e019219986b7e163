package summary_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ipra/internal/cache"
	"ipra/internal/ir"
	"ipra/internal/irgen"
	"ipra/internal/minic/parser"
	"ipra/internal/minic/sem"
	"ipra/internal/summary"
)

func summarize(t *testing.T, src string) *summary.ModuleSummary {
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
	return summary.SummarizeModule(irm)
}

func procOf(t *testing.T, ms *summary.ModuleSummary, name string) *summary.ProcRecord {
	t.Helper()
	for i := range ms.Procs {
		if ms.Procs[i].Name == name {
			return &ms.Procs[i]
		}
	}
	t.Fatalf("no record for %s", name)
	return nil
}

func TestGlobalRefCounts(t *testing.T) {
	ms := summarize(t, `
int g;
int h;
void f(int n) {
	int i;
	g = g + 1;        // depth 0: read+write, freq 2
	for (i = 0; i < n; i++) {
		h = h + g;    // depth 1: freq 10 each access
	}
}
int main() { f(3); return 0; }
`)
	rec := procOf(t, ms, "f")
	refs := map[string]summary.GlobalRef{}
	for _, r := range rec.GlobalRefs {
		refs[r.Name] = r
	}
	g := refs["g"]
	// g: one read+write at depth 0 (freq 1 each) plus one read at depth 1
	// (freq 10): total 12.
	if g.Freq != 12 {
		t.Errorf("g freq = %d, want 12", g.Freq)
	}
	if g.Writes == 0 || g.Reads == 0 {
		t.Errorf("g reads/writes = %d/%d", g.Reads, g.Writes)
	}
	h := refs["h"]
	// h: read and write at depth 1: 20.
	if h.Freq != 20 {
		t.Errorf("h freq = %d, want 20", h.Freq)
	}
}

func TestCallFrequencies(t *testing.T) {
	ms := summarize(t, `
void callee() {}
void f(int n) {
	int i;
	int j;
	callee();                     // freq 1
	for (i = 0; i < n; i++) {
		for (j = 0; j < n; j++) {
			callee();             // freq 100
		}
	}
}
int main() { f(2); return 0; }
`)
	rec := procOf(t, ms, "f")
	if len(rec.Calls) != 1 || rec.Calls[0].Callee != "callee" {
		t.Fatalf("calls: %+v", rec.Calls)
	}
	if rec.Calls[0].Freq != 101 {
		t.Errorf("callee freq = %d, want 101", rec.Calls[0].Freq)
	}
}

func TestIndirectCallsAndTargets(t *testing.T) {
	ms := summarize(t, `
int a(int x) { return x; }
int b(int x) { return -x; }
int (*fp)(int);
int main() {
	fp = a;
	if (fp(1)) { fp = b; }
	return fp(2);
}
`)
	rec := procOf(t, ms, "main")
	if !rec.MakesIndirectCalls {
		t.Error("indirect calls not flagged")
	}
	want := []string{"a", "b"}
	if !reflect.DeepEqual(rec.AddrTakenProcs, want) {
		t.Errorf("addr-taken procs = %v, want %v", rec.AddrTakenProcs, want)
	}
}

func TestAliasedGlobalFlag(t *testing.T) {
	ms := summarize(t, `
int clean;
int dirty;
int main() {
	int *p = &dirty;
	clean = *p;
	return clean;
}
`)
	var cleanInfo, dirtyInfo *summary.GlobalInfo
	for i := range ms.Globals {
		switch ms.Globals[i].Name {
		case "clean":
			cleanInfo = &ms.Globals[i]
		case "dirty":
			dirtyInfo = &ms.Globals[i]
		}
	}
	if cleanInfo.AddrTaken {
		t.Error("clean global marked aliased")
	}
	if !dirtyInfo.AddrTaken {
		t.Error("aliased global not marked")
	}
}

func TestCalleeSavesEstimate(t *testing.T) {
	ms := summarize(t, `
int h(int x);
int nocalls(int x) { return x * 2 + 1; }
int manylive(int a, int b, int c) {
	int t1 = a * 3;
	int t2 = b * 5;
	int t3 = c * 7;
	int u = h(a);
	return t1 + t2 + t3 + u;
}
int main() { return nocalls(1) + manylive(1, 2, 3); }
`)
	if n := procOf(t, ms, "nocalls").CalleeSavesNeeded; n != 0 {
		t.Errorf("leaf needs %d callee-saves, want 0", n)
	}
	if n := procOf(t, ms, "manylive").CalleeSavesNeeded; n < 3 {
		t.Errorf("manylive needs %d callee-saves, want >= 3", n)
	}
}

func TestStaticsQualified(t *testing.T) {
	ms := summarize(t, `
static int priv;
static int f() { priv++; return priv; }
int main() { return f(); }
`)
	found := false
	for _, g := range ms.Globals {
		if g.Name == "m.mc:priv" && g.Static {
			found = true
		}
	}
	if !found {
		t.Errorf("static global not qualified: %+v", ms.Globals)
	}
	rec := procOf(t, ms, "m.mc:f")
	if len(rec.GlobalRefs) != 1 || rec.GlobalRefs[0].Name != "m.mc:priv" {
		t.Errorf("static refs: %+v", rec.GlobalRefs)
	}
}

// TestSummaryFileRoundtrip writes a summary in its file form, the head of
// a phase-1 record, and reads it back the way the program analyzer does:
// the summary alone, with an equal Hash.
func TestSummaryFileRoundtrip(t *testing.T) {
	ms := summarize(t, `
int g;
void f() { g++; }
int main() { f(); return g; }
`)
	path := filepath.Join(t.TempDir(), "m.p1")
	if err := os.WriteFile(path, cache.EncodeEntry(&ir.Module{Name: "m.mc"}, ms), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cache.DecodeSummary(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ms) {
		t.Errorf("roundtrip mismatch:\n%+v\n%+v", got, ms)
	}
	if summary.Hash(got) != summary.Hash(ms) {
		t.Error("Hash differs across the roundtrip")
	}
	got.Procs[0].Calls = append(got.Procs[0].Calls, summary.CallSite{Callee: "h", Freq: 1})
	if summary.Hash(got) == summary.Hash(ms) {
		t.Error("Hash ignores an added call")
	}
}
