package ipra

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"ipra/internal/benchprogs"
	"ipra/internal/cache"
	"ipra/internal/codegen"
	"ipra/internal/core"
	"ipra/internal/ir"
	"ipra/internal/opt"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/progen"
	"ipra/internal/summary"
)

// replayCompile compiles raw module m (frontEnd output) the way the
// benchmark's replay does: web directives on the raw IR, then opt.Level2,
// then the code generator. A build splits Level2 across its phases, so
// this is the reference its objects must equal.
func replayCompile(m *ir.Module, db *pdb.Database) (*parv.Object, error) {
	work := m.Clone()
	eligible := db.EligibleSet()
	for _, f := range work.Funcs {
		dir := db.Lookup(f.Name)
		skip := make(map[string]bool, len(dir.Promoted))
		for _, pg := range dir.Promoted {
			skip[pg.Name] = true
		}
		opt.ApplyWebDirectives(f, dir.Promoted)
		opt.Level2(f, eligible, skip)
	}
	return codegen.Compile(work, db)
}

// phase1Program is one program of TestPhase1OptimizesOnce's corpus, with
// the instruction bound of its training run. A program with no bound runs
// too long to train on (the small preset retires 1.75G instructions): its
// profiled configurations take partialProfile's counts through
// WithAggregatedProfile.
type phase1Program struct {
	name        string
	sources     []Source
	trainInstrs uint64
}

// partialProfile builds sources under L2, runs the program for at most n
// instructions and returns the call-edge counts collected by then.
func partialProfile(t *testing.T, sources []Source, n uint64) *parv.Profile {
	t.Helper()
	res, err := Build(context.Background(), sources, MustPreset("L2"))
	if err != nil {
		t.Fatal(err)
	}
	vm := parv.NewVM(res.Exe)
	vm.ProfileEdges = true
	_, _ = vm.Run(n) // stops at the bound; the counts so far are the point
	return vm.Profile()
}

// phase1Programs is TestPhase1OptimizesOnce's corpus: 80 generated
// programs of varied shape, the small and medium presets, and the
// benchmark programs.
func phase1Programs(t *testing.T) []phase1Program {
	t.Helper()
	var progs []phase1Program
	for seed := int64(1); seed <= 80; seed++ {
		cfg := progen.Config{
			Seed:           seed,
			Modules:        3 + int(seed%5),
			ProcsPerModule: 8 + int(seed*7%13),
			Globals:        20 + int(seed*11%41),
			SubsystemSize:  2 + int(seed%6),
			Recursion:      seed%2 == 0,
			IndirectCalls:  seed%3 == 0,
			Statics:        seed%4 != 1,
			LoopIters:      1 + int(seed%3),
		}
		progs = append(progs, phase1Program{fmt.Sprintf("progen%d", seed), progenSources(progen.Generate(cfg)), 100_000_000})
	}
	for _, name := range []string{"small", "medium"} {
		cfg, err := progen.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, phase1Program{name, progenSources(progen.Generate(cfg)), 0})
	}
	for _, b := range benchprogs.All() {
		progs = append(progs, phase1Program{b.Name, benchSources(t, b), b.MaxInstrs})
	}
	return progs
}

// TestPhase1OptimizesOnce is the differential behind phase 1's single
// opt.Level1 run: a build keeps each module's level-1 IR as its phase-1
// artifact and finishes the level-2 optimizer on it twice, for the
// callee-saves estimate and in phase 2. For every module of every program
// under L2 and A–F, the build's summary must equal both Phase1's and
// Summaries over the raw IR, and its object must equal both Phase2 over
// Phase1's artifact and the benchmark replay's compile, which runs all of
// opt.Level2 on raw IR.
func TestPhase1OptimizesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full-build differential matrix")
	}
	ctx := context.Background()
	compared := 0
	for _, p := range phase1Programs(t) {
		raw := make([]*ir.Module, len(p.sources))
		l1 := make([]*ir.Module, len(p.sources))
		l1sums := make([]*summary.ModuleSummary, len(p.sources))
		for i, src := range p.sources {
			var err error
			if raw[i], err = frontEnd(src); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			if l1[i], l1sums[i], err = Phase1(src); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
		}
		sums := Summaries(raw)
		profiled := WithProfile(p.trainInstrs)
		if p.trainInstrs == 0 {
			profiled = WithAggregatedProfile(partialProfile(t, p.sources, 20_000_000))
		}
		for _, cfg := range determinismConfigs() {
			var opts []BuildOption
			if cfg.WantProfile {
				opts = append(opts, profiled)
			}
			res, err := Build(ctx, p.sources, cfg, opts...)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.name, cfg.Name, err)
			}
			for i, m := range raw {
				where := fmt.Sprintf("%s/%s/%s", p.name, cfg.Name, m.Name)
				if !reflect.DeepEqual(res.Summaries[i], sums[i]) {
					t.Errorf("%s: the build's summary differs from Summaries over the raw IR", where)
				}
				if !reflect.DeepEqual(res.Summaries[i], l1sums[i]) {
					t.Errorf("%s: the build's summary differs from Phase1's", where)
				}
				want := parv.EncodeObject(res.Objects[i])
				obj, err := Phase2(l1[i], res.DB)
				if err != nil {
					t.Fatalf("%s: Phase2: %v", where, err)
				}
				if !bytes.Equal(parv.EncodeObject(obj), want) {
					t.Errorf("%s: the build's object differs from Phase2 over Phase1's artifact", where)
				}
				if obj, err = replayCompile(m, res.DB); err != nil {
					t.Fatalf("%s: replay compile: %v", where, err)
				}
				if !bytes.Equal(parv.EncodeObject(obj), want) {
					t.Errorf("%s: the build's object differs from opt.Level2 over the raw IR", where)
				}
				compared++
			}
		}
	}
	t.Logf("%d module comparisons", compared)
}

// FuzzPhase1 feeds MiniC source to the compiler first phase. For every
// module the front end accepts, nothing may panic, the build's phase 1
// must summarize it exactly as Summaries does, and under a one-module
// analysis with default options the build's phase 2 must compile it
// exactly as the benchmark replay's opt.Level2 path does. The module is
// also built alone under L2 and, with WithVerify, under C: the C build
// must be verifier-clean, and when both executables halt within
// fuzzRunInstrs instructions their exit and output must agree. A module
// that does not link alone, or that runs out of instructions, stops there.
func FuzzPhase1(f *testing.F) {
	for _, b := range benchprogs.All() {
		files, err := b.Sources()
		if err != nil {
			f.Fatal(err)
		}
		for _, file := range files {
			f.Add(file.Text)
		}
	}
	f.Add([]byte(deadStore))
	f.Fuzz(func(t *testing.T, text []byte) {
		ctx := context.Background()
		src := Source{Name: "fuzz.mc", Text: text}
		raw, err := frontEnd(src)
		if err != nil {
			return
		}
		m, ms, _, err := phase1Module(ctx, src, cache.Key{}, false, false)
		if err != nil {
			t.Fatalf("phase1Module rejects what the front end accepts: %v", err)
		}
		if want := Summaries([]*ir.Module{raw})[0]; !reflect.DeepEqual(ms, want) {
			t.Fatalf("the build's summary differs from Summaries over the raw IR:\n got %+v\nwant %+v", ms, want)
		}
		res, err := core.Analyze(ctx, []*summary.ModuleSummary{ms}, core.DefaultOptions())
		if err != nil {
			return
		}
		got, gotErr := phase2Module(ctx, m, res.DB, res.DB.EligibleSet(), nil)
		want, wantErr := replayCompile(raw, res.DB)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("build error %v, replay error %v", gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(parv.EncodeObject(got), parv.EncodeObject(want)) {
			t.Fatal("the build's object differs from opt.Level2 over the raw IR")
		}
		fuzzBehaviour(t, src)
	})
}

// fuzzRunInstrs bounds each run of FuzzPhase1's executables.
const fuzzRunInstrs = 1 << 22

// fuzzBehaviour builds src alone under L2 and, verified, under C, and
// compares the two executables' exit and output when both halt within
// fuzzRunInstrs instructions. It returns quietly when src does not link
// alone or L2's executable does not halt in time.
func fuzzBehaviour(t *testing.T, src Source) {
	ctx := context.Background()
	l2cfg, ccfg := MustPreset("L2"), MustPreset("C")
	l2cfg.DisableCache, ccfg.DisableCache = true, true
	l2, err := Build(ctx, []Source{src}, l2cfg)
	if err != nil {
		return
	}
	c, err := Build(ctx, []Source{src}, ccfg, WithVerify())
	if err != nil {
		t.Fatalf("L2 builds, C with WithVerify fails: %v", err)
	}
	want, err := l2.Run(fuzzRunInstrs, false)
	if err != nil {
		return
	}
	got, err := c.Run(fuzzRunInstrs, false)
	if err != nil {
		return
	}
	if got.Exit != want.Exit || got.Output != want.Output {
		t.Fatalf("C exits %d with output %q, L2 exits %d with output %q", got.Exit, got.Output, want.Exit, want.Output)
	}
}
