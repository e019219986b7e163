package profagg_test

import (
	"context"
	"reflect"
	"testing"

	"ipra"
	"ipra/internal/core"
	"ipra/internal/parv"
	"ipra/internal/profagg"
	"ipra/internal/progen"
	"ipra/internal/webs"
)

var driftCfg = progen.Config{
	Seed: 41, Modules: 4, ProcsPerModule: 8, Globals: 32,
	SubsystemSize: 4, Recursion: true, Statics: true, LoopIters: 3,
}

// analyzeB analyzes the drift scenario under preset B with profile p, as
// the daemon's profiled build does.
func analyzeB(t *testing.T, p *parv.Profile) *core.Result {
	t.Helper()
	o := ipra.MustPreset("B").Analyzer
	o.Profile = p
	res, err := core.Analyze(context.Background(), progen.GenerateSummaries(driftCfg), o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// consideredIDs is the considered-web order of an analysis.
func consideredIDs(res *core.Result) []int {
	var ids []int
	for _, w := range webs.Considered(res.Webs) {
		ids = append(ids, w.ID)
	}
	return ids
}

// TestDriftModelPhaseShift is the differential test for the drift
// trigger: over a preset B analysis, rotating the synthetic workload's hot
// set by one phase must flip at least one web's position in the
// considered-priority order, while re-presenting the trained profile (or
// any aggregate of identical runs of it) must not.
func TestDriftModelPhaseShift(t *testing.T) {
	trained := progen.SynthesizeProfile(driftCfg, progen.DistShift, 0)
	m := profagg.NewDriftModel(analyzeB(t, trained), "dh0")
	if len(m.BaseOrder()) == 0 {
		t.Fatal("trained order is empty; the scenario promotes no webs")
	}
	if m.Drifted(trained) {
		t.Fatal("trained profile reported as drifted")
	}

	// A fleet of identical runs aggregates to exactly the trained profile.
	agg := profagg.NewAggregate("fp", "prog", "dh0")
	rec := profagg.NewRecord("fp", "prog", "dh0")
	rec.AddRuns(trained, 5)
	agg.Merge(rec)
	if m.Drifted(agg.MeanProfile()) {
		t.Fatal("aggregate of identical runs reported as drifted")
	}

	shifted := progen.SynthesizeProfile(driftCfg, progen.DistShift, 1)
	if reflect.DeepEqual(shifted, trained) {
		t.Fatal("phase shift produced an identical profile; test is vacuous")
	}
	if !m.Drifted(shifted) {
		t.Fatal("phase-shifted profile did not flip the priority order")
	}

	// Rebase models a committed re-analysis: the shifted profile becomes
	// the new baseline and stops reading as drift.
	m.Rebase(shifted, "dh1")
	if m.DirectiveHash != "dh1" {
		t.Fatalf("DirectiveHash = %q after rebase, want dh1", m.DirectiveHash)
	}
	// Re-pricing the trained analysis in place orders the webs exactly as
	// a fresh analysis under the shifted profile does.
	if got, want := m.BaseOrder(), consideredIDs(analyzeB(t, shifted)); !reflect.DeepEqual(got, want) {
		t.Fatalf("rebased order %v, fresh analysis %v", got, want)
	}
	if m.Drifted(shifted) {
		t.Fatal("rebased baseline still reads as drifted")
	}
	if !m.Drifted(trained) {
		t.Fatal("old baseline no longer reads as drifted after rebase")
	}
}

// TestStoreRetrainLifecycle walks the store through the daemon's
// sequence: training build registers a model, stable generations merge
// without drift, a shifted generation trips the check, BeginRetrain
// hands back the build context and activates the aggregate, and
// RegisterRetrained re-pins the aggregate to the re-analysis's hash.
func TestStoreRetrainLifecycle(t *testing.T) {
	trained := progen.SynthesizeProfile(driftCfg, progen.DistShift, 0)
	model := profagg.NewDriftModel(analyzeB(t, trained), "dh0")

	s := profagg.New(profagg.Options{Fingerprint: "fp"})
	const prog = "progB"
	type buildCtx struct{ name string }
	s.Register(prog, model, &buildCtx{name: "request"})

	if _, _, ok := s.ActiveAggregate(prog); ok {
		t.Fatal("aggregate active before any retrain")
	}
	if _, ok := s.BeginRetrain(prog); ok {
		t.Fatal("BeginRetrain succeeded with no aggregate")
	}

	// Two stable generations: merged, checked, no drift.
	for gen := 0; gen < 2; gen++ {
		r := profagg.NewRecord("fp", prog, "dh0")
		r.AddRuns(trained, 4)
		res, err := s.Ingest(r)
		if err != nil || !res.Accepted {
			t.Fatalf("gen %d: %v / %+v", gen, err, res)
		}
		if !res.ModelReady || res.Drifted {
			t.Fatalf("gen %d: ModelReady=%t Drifted=%t, want true/false", gen, res.ModelReady, res.Drifted)
		}
	}

	// A shifted generation heavy enough to move the mean trips the check.
	shifted := profagg.NewRecord("fp", prog, "dh0")
	shifted.AddRuns(progen.SynthesizeProfile(driftCfg, progen.DistShift, 1), 64)
	res, err := s.Ingest(shifted)
	if err != nil || !res.Accepted || !res.Drifted {
		t.Fatalf("shifted generation: err %v, %+v, want accepted+drifted", err, res)
	}

	meta, ok := s.BeginRetrain(prog)
	if !ok {
		t.Fatal("BeginRetrain failed after drift")
	}
	if bc, ok := meta.(*buildCtx); !ok || bc.name != "request" {
		t.Fatalf("meta = %#v, want the registered build context", meta)
	}
	hash, prof, ok := s.ActiveAggregate(prog)
	if !ok || hash == "" || prof == nil {
		t.Fatal("ActiveAggregate not exposed during retrain")
	}

	s.AbortRetrain(prog)
	if _, _, ok := s.ActiveAggregate(prog); ok {
		t.Fatal("aggregate still active after abort")
	}

	if _, ok := s.BeginRetrain(prog); !ok {
		t.Fatal("BeginRetrain retry failed")
	}
	model.Rebase(prof, "dh1")
	s.RegisterRetrained(prog, model, meta)
	if _, _, ok := s.ActiveAggregate(prog); !ok {
		t.Fatal("aggregate inactive after RegisterRetrained")
	}

	// Fleet binaries from the retrained build stamp the new hash.
	next := profagg.NewRecord("fp", prog, "dh1")
	next.AddRuns(prof, 4)
	if res, _ := s.Ingest(next); !res.Accepted {
		t.Fatalf("post-retrain record rejected: %+v", res)
	}
	old := profagg.NewRecord("fp", prog, "dh0")
	old.AddRuns(trained, 1)
	if res, _ := s.Ingest(old); res.Accepted || res.Reason != profagg.ReasonStaleDirectives {
		t.Fatalf("pre-retrain record accepted: %+v", res)
	}
}
