package profagg_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"ipra"
	"ipra/internal/core"
	"ipra/internal/parv"
	"ipra/internal/profagg"
	"ipra/internal/progen"
	"ipra/internal/summary"
	"ipra/internal/webs"
)

var driftCfg = progen.Config{
	Seed: 41, Modules: 4, ProcsPerModule: 8, Globals: 32,
	SubsystemSize: 4, Recursion: true, Statics: true, LoopIters: 3,
}

// driftProgram is one analyzed program of the drift scenario's shape: the
// summaries phase 1 writes for it and the analyzer options of preset.
type driftProgram struct {
	sums []*summary.ModuleSummary
	opt  core.Options
}

func newDriftProgram(t *testing.T, preset string, seed int64) driftProgram {
	t.Helper()
	cfg := driftCfg
	cfg.Seed = seed
	var sums []*summary.ModuleSummary
	for _, m := range progen.Generate(cfg) {
		_, ms, err := ipra.Phase1(ipra.Source{Name: m.Name, Text: []byte(m.Text)})
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, ms)
	}
	return driftProgram{sums, ipra.MustPreset(preset).AnalyzerOptions(nil)}
}

// analyze runs the analyzer over the program under p, as the daemon's
// profiled build does.
func (d driftProgram) analyze(t *testing.T, p *parv.Profile) *core.Result {
	t.Helper()
	o := d.opt
	o.Profile = p
	res, err := core.Analyze(context.Background(), d.sums, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// model is the drift model of a build trained on p: the options carry p,
// as the daemon registers them.
func (d driftProgram) model(t *testing.T, p *parv.Profile) *profagg.DriftModel {
	t.Helper()
	o := d.opt
	o.Profile = p
	return profagg.NewDriftModel(d.sums, o, d.analyze(t, p).DB.Hash())
}

// consideredOrder is the sequence of web IDs an analysis colors.
func consideredOrder(res *core.Result) []int {
	var ids []int
	for _, w := range webs.Considered(res.Webs) {
		ids = append(ids, w.ID)
	}
	return ids
}

// shifted is the synthetic workload of the drift scenario's shape under
// seed at phase.
func shifted(seed int64, phase int) *parv.Profile {
	cfg := driftCfg
	cfg.Seed = seed
	return progen.SynthesizeProfile(cfg, phase)
}

// TestDriftModelPhaseShift: over a preset B program trained on phase 0,
// re-presenting the trained profile (or any aggregate of identical runs
// of it) is not drift, rotating the workload's hot set by one phase is,
// and concurrent checks on one model agree.
func TestDriftModelPhaseShift(t *testing.T) {
	prog := newDriftProgram(t, "B", driftCfg.Seed)
	trained, moved := shifted(driftCfg.Seed, 0), shifted(driftCfg.Seed, 1)
	if reflect.DeepEqual(moved, trained) {
		t.Fatal("phase shift produced an identical profile; test is vacuous")
	}
	m := prog.model(t, trained)
	if m.Drifted(trained) {
		t.Fatal("trained profile reported as drifted")
	}

	// A fleet of identical runs aggregates to exactly the trained profile.
	agg := profagg.NewAggregate("fp", "prog", m.DirectiveHash)
	agg.AddRuns(trained, 5)
	if m.Drifted(agg.MeanProfile()) {
		t.Fatal("aggregate of identical runs reported as drifted")
	}

	// The model is read-only: two checks may run on it at once.
	var wg sync.WaitGroup
	got := make([]bool, 2)
	for i, p := range []*parv.Profile{trained, moved} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = m.Drifted(p)
		}()
	}
	wg.Wait()
	if got[0] || !got[1] {
		t.Fatalf("concurrent checks of the trained and shifted profiles read %v, want [false true]", got)
	}
}

// TestDriftModelSkipsItsOwnProfile: the profile a model was built under
// produced the model's database, so checking it runs no analysis. This
// model's options name an unknown strategy, so any analysis of it fails
// and reads as drift: the trained profile, and an aggregate of identical
// runs of it, still read false, and another profile reads true.
func TestDriftModelSkipsItsOwnProfile(t *testing.T) {
	prog := newDriftProgram(t, "B", driftCfg.Seed)
	trained := shifted(driftCfg.Seed, 0)
	o := prog.opt
	o.Profile = trained
	o.Strategy = "no-such-strategy"
	m := profagg.NewDriftModel(prog.sums, o, "directives")
	agg := profagg.NewAggregate("fp", "prog", m.DirectiveHash)
	agg.AddRuns(trained, 5)
	if m.Drifted(trained) || m.Drifted(agg.MeanProfile()) {
		t.Error("the model's own profile was analyzed")
	}
	if !m.Drifted(shifted(driftCfg.Seed, 1)) {
		t.Error("another profile read as no drift although its analysis fails")
	}
}

// TestDriftIsExact pins two checks of programs trained on phase 0 where
// the considered-web order — what coloring consumes — and the program
// database disagree: F seed 7's shift keeps the order but moves
// directives (spill-motion clusters read the counts too), and B seed 3's
// reorders webs, which B never colors, without moving a directive. Drift
// follows the database.
func TestDriftIsExact(t *testing.T) {
	for _, c := range []struct {
		preset string
		seed   int64
		drift  bool
	}{
		{"F", 7, true},
		{"B", 3, false},
	} {
		prog := newDriftProgram(t, c.preset, c.seed)
		before, after := prog.analyze(t, shifted(c.seed, 0)), prog.analyze(t, shifted(c.seed, 1))
		if reordered := !reflect.DeepEqual(consideredOrder(before), consideredOrder(after)); reordered == c.drift {
			t.Fatalf("%s seed %d: web order changed = %t; the case no longer separates order from directives", c.preset, c.seed, reordered)
		}
		m := profagg.NewDriftModel(prog.sums, prog.opt, before.DB.Hash())
		if got := m.Drifted(shifted(c.seed, 1)); got != c.drift {
			t.Errorf("%s seed %d phase 1: Drifted = %t, want %t", c.preset, c.seed, got, c.drift)
		}
	}
}

// TestStoreRetrainLifecycle walks the store through the daemon's
// sequence: training build registers a model, stable generations merge
// without drift, a shifted generation trips the check, BeginRetrain
// hands back the build context and activates the aggregate, and the
// retrained build's Register re-pins the aggregate to its directive hash.
func TestStoreRetrainLifecycle(t *testing.T) {
	prog := newDriftProgram(t, "B", driftCfg.Seed)
	trained := shifted(driftCfg.Seed, 0)
	model := prog.model(t, trained)
	dh0 := model.DirectiveHash

	s := profagg.New(profagg.Options{Fingerprint: "fp"})
	const key = "progB"
	type buildCtx struct{ name string }
	s.Register(key, model, &buildCtx{name: "request"})

	if _, _, ok := s.ActiveAggregate(key); ok {
		t.Fatal("aggregate active before any retrain")
	}
	if _, ok := s.BeginRetrain(key); ok {
		t.Fatal("BeginRetrain succeeded with no aggregate")
	}

	// Two stable generations: merged, checked, no drift.
	for gen := 0; gen < 2; gen++ {
		r := profagg.NewAggregate("fp", key, dh0)
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
	heavy := profagg.NewAggregate("fp", key, dh0)
	heavy.AddRuns(shifted(driftCfg.Seed, 1), 64)
	res, err := s.Ingest(heavy)
	if err != nil || !res.Accepted || !res.Drifted {
		t.Fatalf("shifted generation: err %v, %+v, want accepted+drifted", err, res)
	}

	meta, ok := s.BeginRetrain(key)
	if !ok {
		t.Fatal("BeginRetrain failed after drift")
	}
	if bc, ok := meta.(*buildCtx); !ok || bc.name != "request" {
		t.Fatalf("meta = %#v, want the registered build context", meta)
	}
	hash, prof, ok := s.ActiveAggregate(key)
	if !ok || hash == "" || prof == nil {
		t.Fatal("ActiveAggregate not exposed during retrain")
	}

	s.AbortRetrain(key)
	if _, _, ok := s.ActiveAggregate(key); ok {
		t.Fatal("aggregate still active after abort")
	}

	if _, ok := s.BeginRetrain(key); !ok {
		t.Fatal("BeginRetrain retry failed")
	}
	retrained := prog.model(t, prof)
	dh1 := retrained.DirectiveHash
	if dh1 == dh0 {
		t.Fatal("the drifted aggregate's analysis kept the trained directive hash")
	}
	s.Register(key, retrained, meta)
	if _, _, ok := s.ActiveAggregate(key); !ok {
		t.Fatal("aggregate inactive after the retrained build registered")
	}

	// Fleet binaries from the retrained build stamp the new hash.
	next := profagg.NewAggregate("fp", key, dh1)
	next.AddRuns(prof, 4)
	if res, _ := s.Ingest(next); !res.Accepted {
		t.Fatalf("post-retrain record rejected: %+v", res)
	}
	old := profagg.NewAggregate("fp", key, dh0)
	old.AddRuns(trained, 1)
	if res, _ := s.Ingest(old); res.Accepted || res.Reason != profagg.ReasonStaleDirectives {
		t.Fatalf("pre-retrain record accepted: %+v", res)
	}
}
