package core_test

import (
	"context"
	"strings"
	"testing"

	"ipra"
	"ipra/internal/core"
	"ipra/internal/progen"
	"ipra/internal/summary"
)

// presetSummaries compiles the program of a progen preset through phase 1
// and returns its summaries, the analyzer's input.
func presetSummaries(t *testing.T, preset string) []*summary.ModuleSummary {
	t.Helper()
	cfg, err := progen.Preset(preset)
	if err != nil {
		t.Fatal(err)
	}
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

// twoModuleProgram is a cross-module program: main.mc drives, lib.mc owns
// the globals. A static in lib.mc is also referenced from a lib procedure
// called only from main (its web entry would be in main.mc → discarded).
func twoModuleProgram() []*summary.ModuleSummary {
	return []*summary.ModuleSummary{
		{
			Module: "main.mc",
			Procs: []summary.ProcRecord{
				{Name: "main", Module: "main.mc",
					GlobalRefs: []summary.GlobalRef{{Name: "shared", Freq: 4, Reads: 2, Writes: 2}},
					Calls: []summary.CallSite{
						{Callee: "work", Freq: 100},
						{Callee: "lib.mc:helper", Freq: 10},
					},
					CalleeSavesNeeded: 2},
			},
			Globals: []summary.GlobalInfo{
				{Name: "shared", Module: "main.mc", Size: 4, Scalar: true}, // extern here
			},
		},
		{
			Module: "lib.mc",
			Procs: []summary.ProcRecord{
				{Name: "work", Module: "lib.mc",
					GlobalRefs: []summary.GlobalRef{
						{Name: "shared", Freq: 50, Reads: 30, Writes: 20},
						{Name: "lib.mc:priv", Freq: 20, Reads: 20},
					},
					Calls:             []summary.CallSite{{Callee: "leafy", Freq: 10}},
					CalleeSavesNeeded: 3},
				{Name: "leafy", Module: "lib.mc",
					GlobalRefs:        []summary.GlobalRef{{Name: "shared", Freq: 9, Reads: 9}},
					CalleeSavesNeeded: 0},
				{Name: "lib.mc:helper", Module: "lib.mc", Static: true,
					GlobalRefs:        []summary.GlobalRef{{Name: "lib.mc:priv", Freq: 5, Reads: 5}},
					CalleeSavesNeeded: 1},
			},
			Globals: []summary.GlobalInfo{
				{Name: "shared", Module: "lib.mc", Size: 4, Defined: true, Scalar: true},
				{Name: "lib.mc:priv", Module: "lib.mc", Size: 4, Defined: true, Scalar: true, Static: true},
			},
		},
	}
}

func TestAnalyzeColoring(t *testing.T) {
	res, err := core.Analyze(context.Background(), twoModuleProgram(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EligibleGlobals != 2 {
		t.Errorf("eligible = %d, want 2", res.Stats.EligibleGlobals)
	}
	// The shared web spans main, work, leafy with entry main.
	d := res.DB.Lookup("work")
	var sharedReg uint8
	found := false
	for _, p := range d.Promoted {
		if p.Name == "shared" {
			found = true
			sharedReg = p.Reg
			if p.IsEntry {
				t.Error("work must not be the web entry (main is)")
			}
			if !p.NeedStore {
				t.Error("shared is written: store required")
			}
		}
	}
	if !found {
		t.Fatalf("shared not promoted in work: %+v", d.Promoted)
	}
	md := res.DB.Lookup("main")
	for _, p := range md.Promoted {
		if p.Name == "shared" {
			if !p.IsEntry {
				t.Error("main should be the web entry")
			}
			if p.Reg != sharedReg {
				t.Errorf("web register differs across procedures: r%d vs r%d", p.Reg, sharedReg)
			}
		}
	}
	// The promoted register is in no usage set anywhere in the web.
	for _, name := range []string{"main", "work", "leafy"} {
		dd := res.DB.Lookup(name)
		for _, p := range dd.Promoted {
			all := dd.Free.Union(dd.Caller).Union(dd.Callee).Union(dd.MSpill)
			if all.Has(p.Reg) {
				t.Errorf("%s: promoted register r%d appears in a usage set", name, p.Reg)
			}
		}
		if err := dd.Validate(); err != nil {
			t.Error(err)
		}
	}
}

// TestStaticCrossModuleWebDiscarded checks §7.4: a web for a static whose
// entry procedure lies in a different module cannot be promoted.
func TestStaticCrossModuleWebDiscarded(t *testing.T) {
	sums := []*summary.ModuleSummary{
		{
			Module: "a.mc",
			Procs: []summary.ProcRecord{
				// main references the static (impossible in real MiniC for
				// a *different* module's static — this models the web
				// growing an entry outside the defining module via a
				// non-referencing ancestor; we force it directly).
				{Name: "main", Module: "a.mc",
					GlobalRefs: []summary.GlobalRef{{Name: "b.mc:s", Freq: 50, Reads: 50}},
					Calls:      []summary.CallSite{{Callee: "user", Freq: 50}}},
			},
		},
		{
			Module: "b.mc",
			Procs: []summary.ProcRecord{
				{Name: "user", Module: "b.mc",
					GlobalRefs: []summary.GlobalRef{{Name: "b.mc:s", Freq: 50, Reads: 50, Writes: 10}}},
			},
			Globals: []summary.GlobalInfo{
				{Name: "b.mc:s", Module: "b.mc", Size: 4, Defined: true, Scalar: true, Static: true},
			},
		},
	}
	res, err := core.Analyze(context.Background(), sums, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Webs {
		if w.Var == "b.mc:s" && !w.Discarded {
			t.Errorf("cross-module static web not discarded: %v", w)
		}
	}
	if d := res.DB.Lookup("user"); len(d.Promoted) != 0 {
		t.Errorf("static promoted despite cross-module entry: %+v", d.Promoted)
	}
}

func TestAnalyzeSpillMotionOnly(t *testing.T) {
	o := core.DefaultOptions()
	o.Promotion = core.PromoteNone
	res, err := core.Analyze(context.Background(), twoModuleProgram(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.WebsColored != 0 {
		t.Error("promotion ran despite PromoteNone")
	}
	for name, d := range res.DB.Procs {
		if len(d.Promoted) != 0 {
			t.Errorf("%s has promotions under PromoteNone", name)
		}
		if err := d.Validate(); err != nil {
			t.Error(err)
		}
	}
	// work is called 100x from main (called once): main should root a
	// cluster and work should have FREE registers.
	if d := res.DB.Lookup("work"); d.Free.Empty() {
		t.Logf("note: FREE[work] empty; clusters: %+v", res.Clusters.Clusters)
	}
}

func TestAnalyzeBlanket(t *testing.T) {
	o := core.DefaultOptions()
	o.Promotion = core.PromoteBlanket
	res, err := core.Analyze(context.Background(), twoModuleProgram(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blankets) == 0 || len(res.Blankets) > core.PromotionRegs {
		t.Fatalf("blankets = %d, want 1 to %d", len(res.Blankets), core.PromotionRegs)
	}
	// The hottest global (shared) leads the list and is promoted in every
	// procedure that the analyzer knows.
	if res.Blankets[0].Var != "shared" {
		t.Errorf("hottest blanket is %s, want shared", res.Blankets[0].Var)
	}
	for _, name := range []string{"main", "work", "leafy"} {
		d := res.DB.Lookup(name)
		found := false
		for _, p := range d.Promoted {
			if p.Name == "shared" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s lacks the blanket promotion", name)
		}
	}
}

func TestReportMentionsEverything(t *testing.T) {
	res, err := core.Analyze(context.Background(), twoModuleProgram(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	for _, want := range []string{"call graph", "eligible globals", "webs", "clusters"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
