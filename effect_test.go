package ipra

import "testing"

// hotGlobals is a small call-intensive program whose globals are accessed
// in a tight call chain — the exact situation interprocedural promotion
// targets: level-2 compilation must store/reload the promoted globals
// around every call.
const hotGlobals = `
int acc;
int scale;
int bias;

int work(int x) {
	acc = acc + x * scale + bias;
	return acc;
}

int wrap(int x) { return work(x) + 1; }

int main() {
	int i;
	acc = 0;
	scale = 3;
	bias = 1;
	for (i = 0; i < 2000; i++) {
		wrap(i);
	}
	return acc & 255;
}
`

// TestPromotionReducesSingletonRefs checks the Table 5 effect: web
// promotion (config C) eliminates a large share of the singleton memory
// references that remain after level-2 optimization.
func TestPromotionReducesSingletonRefs(t *testing.T) {
	l2 := compileAndRun(t, MustPreset("L2"), src("main.mc", hotGlobals))
	c := compileAndRun(t, MustPreset("C"), src("main.mc", hotGlobals))

	if c.Exit != l2.Exit {
		t.Fatalf("behaviour differs: C exit %d, L2 exit %d", c.Exit, l2.Exit)
	}
	l2Refs := l2.Stats.SingletonRefs()
	cRefs := c.Stats.SingletonRefs()
	t.Logf("singleton refs: L2=%d C=%d (cycles L2=%d C=%d)", l2Refs, cRefs, l2.Stats.Cycles, c.Stats.Cycles)
	if cRefs >= l2Refs {
		t.Errorf("config C singleton refs (%d) not below L2 (%d)", cRefs, l2Refs)
	}
	// The program is dominated by global traffic around calls: promotion
	// should eliminate well over half of the singleton references.
	if float64(cRefs) > 0.5*float64(l2Refs) {
		t.Errorf("config C eliminated too few singleton refs: %d of %d remain", cRefs, l2Refs)
	}
	if c.Stats.Cycles >= l2.Stats.Cycles {
		t.Errorf("config C cycles (%d) not below L2 (%d)", c.Stats.Cycles, l2.Stats.Cycles)
	}
}

// deadStore stores a promotable global only under if (0): the store is
// dead code, and the hot loop's calls to f must pay no promotion transfers
// for it.
const deadStore = `
int g;
int h(int x) { return x + 1; }
int f(int x) { if (0) { g = 1; } return h(x); }
int main() { int i; int s; s = 0; for (i = 0; i < 1000; i++) { s = s + f(i); } return s & 255; }
`

// TestDeadCodeGetsNoPromotion pins that intraprocedural promotion sees
// only live code end to end. A level-2 optimizer that promotes before it
// cleans up makes f load and store g around its call and at its entry and
// exit: 4,000 singleton references and 6,000 cycles more.
func TestDeadCodeGetsNoPromotion(t *testing.T) {
	for _, tc := range []struct {
		cfg                   string
		cycles, loads, stores uint64
	}{
		{"L2", 34024, 1003, 1003},
		{"C", 34027, 1004, 1004},
	} {
		res := compileAndRun(t, MustPreset(tc.cfg), src("main.mc", deadStore))
		st := res.Stats
		if res.Exit != 20 || st.Cycles != tc.cycles || st.Loads != tc.loads || st.Stores != tc.stores || st.SingletonRefs() != 0 {
			t.Errorf("%s: exit=%d cycles=%d loads=%d stores=%d singleton=%d, want exit=20 cycles=%d loads=%d stores=%d singleton=0",
				tc.cfg, res.Exit, st.Cycles, st.Loads, st.Stores, st.SingletonRefs(), tc.cycles, tc.loads, tc.stores)
		}
	}
}

// TestSpillMotionReducesCycles checks the Table 4 column A effect on a
// call-intensive cluster: a cheap parent calling register-hungry children
// in a loop.
func TestSpillMotionReducesCycles(t *testing.T) {
	prog := `
int sink;

int child(int a, int b, int c) {
	int t1 = a * 3;
	int t2 = b * 5;
	int t3 = c * 7;
	int t4 = a + b;
	int t5 = b + c;
	int u = helper(t1 + t2);
	return t1 + t2 + t3 + t4 + t5 + u;
}

int helper(int x) { return x ^ 21; }

int parent(int n) {
	int i;
	int s = 0;
	for (i = 0; i < n; i++) {
		s += child(i, i + 1, i + 2);
	}
	return s;
}

int main() {
	sink = parent(3000);
	return sink & 255;
}
`
	l2 := compileAndRun(t, MustPreset("L2"), src("main.mc", prog))
	a := compileAndRun(t, MustPreset("A"), src("main.mc", prog))
	if a.Exit != l2.Exit {
		t.Fatalf("behaviour differs: A exit %d, L2 exit %d", a.Exit, l2.Exit)
	}
	t.Logf("cycles: L2=%d A=%d; memrefs: L2=%d A=%d",
		l2.Stats.Cycles, a.Stats.Cycles, l2.Stats.MemRefs(), a.Stats.MemRefs())
	if a.Stats.Cycles > l2.Stats.Cycles {
		t.Errorf("spill motion made the program slower: %d > %d", a.Stats.Cycles, l2.Stats.Cycles)
	}
}
