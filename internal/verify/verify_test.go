package verify_test

import (
	"context"
	"fmt"
	"testing"

	"ipra"
	"ipra/internal/callgraph"
	"ipra/internal/core"
	"ipra/internal/pdb"
	"ipra/internal/progen"
	"ipra/internal/refsets"
	"ipra/internal/regs"
	"ipra/internal/summary"
	"ipra/internal/verify"
)

// fixture builds a small, fully consistent analysis result by hand:
//
//	main ──> f ──> h
//	  └────> g ──┘
//
// Global x is promoted over the whole graph as web 1 on r18 (main is the
// entry; f writes x, so NeedStore holds). main is a cluster root spilling
// r17, which f then uses as FREE. Global y is eligible but unpromoted.
func fixture(t *testing.T) (*callgraph.Graph, *refsets.Sets, *pdb.Database) {
	t.Helper()
	mods := []*summary.ModuleSummary{{
		Module: "m",
		Procs: []summary.ProcRecord{
			{Name: "main", Module: "m", Calls: []summary.CallSite{{Callee: "f", Freq: 1}, {Callee: "g", Freq: 1}}},
			{Name: "f", Module: "m", Calls: []summary.CallSite{{Callee: "h", Freq: 1}},
				GlobalRefs: []summary.GlobalRef{{Name: "x", Freq: 2, Reads: 1, Writes: 1}}},
			{Name: "g", Module: "m", Calls: []summary.CallSite{{Callee: "h", Freq: 1}}},
			{Name: "h", Module: "m",
				GlobalRefs: []summary.GlobalRef{{Name: "x", Freq: 1, Reads: 1}, {Name: "y", Freq: 1, Reads: 1}}},
		},
		Globals: []summary.GlobalInfo{
			{Name: "x", Module: "m", Size: 4, Defined: true, Scalar: true},
			{Name: "y", Module: "m", Size: 4, Defined: true, Scalar: true},
		},
	}}
	g, err := callgraph.Build(mods)
	if err != nil {
		t.Fatalf("callgraph: %v", err)
	}
	sets := refsets.Compute(g, []string{"x", "y"})

	web := func(entry bool) []pdb.PromotedGlobal {
		return []pdb.PromotedGlobal{{Name: "x", Reg: 18, IsEntry: entry, NeedStore: true, WebID: 1}}
	}
	db := pdb.New()
	db.EligibleGlobals = []string{"x", "y"}
	db.Procs["main"] = &pdb.ProcDirectives{Name: "main", Promoted: web(true),
		MSpill: regs.Of(17), IsClusterRoot: true, Callee: regs.Of(3)}
	db.Procs["f"] = &pdb.ProcDirectives{Name: "f", Promoted: web(false), Free: regs.Of(17)}
	db.Procs["g"] = &pdb.ProcDirectives{Name: "g", Promoted: web(false)}
	db.Procs["h"] = &pdb.ProcDirectives{Name: "h", Promoted: web(false)}
	return g, sets, db
}

func TestConsistentFixtureIsClean(t *testing.T) {
	g, sets, db := fixture(t)
	if vs := verify.Check(g, sets, db); len(vs) != 0 {
		t.Fatalf("consistent database reported violations:\n%s", render(vs))
	}
	// The refsets are optional; the remaining checks must still pass.
	if vs := verify.Check(g, nil, db); len(vs) != 0 {
		t.Fatalf("nil refsets reported violations:\n%s", render(vs))
	}
}

func render(vs []verify.Violation) string {
	s := ""
	for _, v := range vs {
		s += v.String() + "\n"
	}
	return s
}

// requireClass asserts at least one violation was found and every
// violation belongs to the one corrupted invariant class.
func requireClass(t *testing.T, vs []verify.Violation, class string) {
	t.Helper()
	if len(vs) == 0 {
		t.Fatalf("corruption not detected (want class %s)", class)
	}
	for _, v := range vs {
		if v.Class != class {
			t.Errorf("violation outside class %s:\n%s", class, render(vs))
			return
		}
	}
}

// TestMutations corrupts one Database field per case and asserts the
// verifier flags exactly the matching invariant class.
func TestMutations(t *testing.T) {
	cases := []struct {
		name   string
		class  string
		mutate func(db *pdb.Database)
	}{
		{"web-register-mismatch", verify.ClassWebs, func(db *pdb.Database) {
			db.Procs["f"].Promoted[0].Reg = 16
		}},
		{"variable-promoted-twice", verify.ClassWebs, func(db *pdb.Database) {
			d := db.Procs["f"]
			d.Promoted = append(d.Promoted,
				pdb.PromotedGlobal{Name: "x", Reg: 16, NeedStore: true, WebID: 2})
		}},
		{"web-without-entry", verify.ClassWebs, func(db *pdb.Database) {
			db.Procs["main"].Promoted[0].IsEntry = false
		}},
		{"web-not-closed-over-references", verify.ClassWebs, func(db *pdb.Database) {
			db.Procs["h"].Promoted = nil
		}},
		{"needstore-disagreement", verify.ClassWebs, func(db *pdb.Database) {
			db.Procs["f"].Promoted[0].NeedStore = false
		}},
		{"write-without-needstore", verify.ClassWebs, func(db *pdb.Database) {
			for _, d := range db.Procs {
				for i := range d.Promoted {
					d.Promoted[i].NeedStore = false
				}
			}
		}},
		{"promoted-variable-not-eligible", verify.ClassWebs, func(db *pdb.Database) {
			db.EligibleGlobals = []string{"y"}
		}},
		{"two-webs-one-register", verify.ClassInterference, func(db *pdb.Database) {
			d := db.Procs["h"]
			d.Promoted = append(d.Promoted,
				pdb.PromotedGlobal{Name: "y", Reg: 18, IsEntry: true, WebID: 7})
		}},
		{"promotion-to-caller-saved", verify.ClassInterference, func(db *pdb.Database) {
			for _, d := range db.Procs {
				for i := range d.Promoted {
					d.Promoted[i].Reg = 19
				}
			}
		}},
		{"mspill-off-cluster-root", verify.ClassClusters, func(db *pdb.Database) {
			db.Procs["main"].IsClusterRoot = false
		}},
		{"free-overlaps-callee", verify.ClassCallEdges, func(db *pdb.Database) {
			db.Procs["f"].Callee = regs.Of(17)
		}},
		{"free-register-not-available", verify.ClassCallEdges, func(db *pdb.Database) {
			// f already consumes r17 without saving it; h, below f, cannot
			// treat it as free too — on the main→f→h chain nothing respills.
			db.Procs["h"].Free = regs.Of(17)
		}},
		{"clobber-contract-understated", verify.ClassCallEdges, func(db *pdb.Database) {
			db.Procs["main"].HasClobber = true
			db.Procs["main"].ClobberAtCalls = 0
		}},
		{"directives-for-unknown-procedure", verify.ClassHashes, func(db *pdb.Database) {
			db.Procs["zzz"] = &pdb.ProcDirectives{Name: "zzz"}
		}},
		{"key-name-mismatch", verify.ClassHashes, func(db *pdb.Database) {
			db.Procs["g"].Name = "other"
		}},
		{"eligible-globals-unsorted", verify.ClassHashes, func(db *pdb.Database) {
			db.EligibleGlobals = []string{"y", "x"}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, sets, db := fixture(t)
			tc.mutate(db)
			requireClass(t, verify.Check(g, sets, db), tc.class)
		})
	}
}

// TestUnknownExternalCallerPoisons models the partial-program hazard: an
// unknown external caller reaching into the middle of a web invalidates
// the promotion (the external code neither loads the web register nor
// lies inside the spill cluster). Several invariant classes legitimately
// fire at once.
func TestUnknownExternalCallerPoisons(t *testing.T) {
	g, sets, db := fixture(t)
	f := g.NodeByName("f")
	g.AddSyntheticCaller("<external>", []int{f.ID})

	got := map[string]bool{}
	for _, v := range verify.Check(g, sets, db) {
		got[v.Class] = true
	}
	for _, class := range []string{verify.ClassWebs, verify.ClassClusters, verify.ClassCallEdges} {
		if !got[class] {
			t.Errorf("external caller into the web did not trigger class %s", class)
		}
	}
}

func TestViolationString(t *testing.T) {
	v := verify.Violation{Class: verify.ClassWebs, Proc: "f", Detail: "boom"}
	if got, want := v.String(), "[webs] f: boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	v.Proc = ""
	if got, want := v.String(), "[webs] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestAnalyzerOutputVerifies is the self-application sweep at unit scale:
// the analyzer's own output over generated whole programs must satisfy
// every invariant under each promotion strategy and extension.
func TestAnalyzerOutputVerifies(t *testing.T) {
	cfgs := []struct {
		name string
		opt  func() core.Options
	}{
		{"coloring", func() core.Options { return core.DefaultOptions() }},
		{"greedy", func() core.Options {
			o := core.DefaultOptions()
			o.Promotion = core.PromoteGreedy
			return o
		}},
		{"blanket", func() core.Options {
			o := core.DefaultOptions()
			o.Promotion = core.PromoteBlanket
			return o
		}},
		{"none", func() core.Options {
			o := core.DefaultOptions()
			o.Promotion = core.PromoteNone
			return o
		}},
		{"no-spill-motion", func() core.Options {
			o := core.DefaultOptions()
			o.SpillMotion = false
			return o
		}},
		{"merge-webs", func() core.Options {
			o := core.DefaultOptions()
			o.MergeWebs = true
			return o
		}},
		{"caller-saves", func() core.Options {
			o := core.DefaultOptions()
			o.CallerSavesPreallocation = true
			return o
		}},
		{"partial", func() core.Options {
			o := core.DefaultOptions()
			o.PartialProgram = true
			return o
		}},
		{"partial-blanket", func() core.Options {
			o := core.DefaultOptions()
			o.PartialProgram = true
			o.Promotion = core.PromoteBlanket
			return o
		}},
	}
	pcfg, err := progen.Preset("small")
	if err != nil {
		t.Fatal(err)
	}
	sums := phase1Summaries(t, pcfg)
	for _, tc := range cfgs {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.Analyze(context.Background(), sums, tc.opt())
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			vs := verify.Check(res.Graph, res.Sets, res.DB)
			for i, v := range vs {
				if i == 20 {
					t.Errorf("... %d more", len(vs)-20)
					break
				}
				t.Error(v.String())
			}
		})
	}
}

// phase1Summaries compiles the program progen generates for cfg through
// phase 1 and returns its summaries, the analyzer's input.
func phase1Summaries(t *testing.T, cfg progen.Config) []*summary.ModuleSummary {
	t.Helper()
	var sums []*summary.ModuleSummary
	for _, m := range progen.Generate(cfg) {
		_, ms, err := ipra.Phase1(ipra.Source{Name: m.Name, Text: []byte(m.Text)})
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, ms)
	}
	return sums
}

// TestAnalyzerOutputVerifiesAcrossSeeds widens the sweep over generated
// program shapes (recursion, indirect calls, statics).
func TestAnalyzerOutputVerifiesAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sums := phase1Summaries(t, progen.Config{
				Seed:           seed,
				Modules:        3,
				ProcsPerModule: 8,
				Globals:        40,
				SubsystemSize:  4,
				Recursion:      true,
				IndirectCalls:  seed%2 == 0,
				Statics:        true,
				LoopIters:      2,
			})
			for _, mode := range []core.PromotionMode{core.PromoteColoring, core.PromoteGreedy, core.PromoteBlanket} {
				opt := core.DefaultOptions()
				opt.Promotion = mode
				opt.CallerSavesPreallocation = seed%2 == 1
				res, err := core.Analyze(context.Background(), sums, opt)
				if err != nil {
					t.Fatalf("analyze: %v", err)
				}
				for _, v := range verify.Check(res.Graph, res.Sets, res.DB) {
					t.Errorf("mode %v: %s", mode, v.String())
				}
			}
		})
	}
}
