package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"ipra"
	"ipra/internal/codegen"
	"ipra/internal/core"
	"ipra/internal/ir"
	"ipra/internal/irgen"
	"ipra/internal/minic/ast"
	"ipra/internal/minic/parser"
	"ipra/internal/minic/sem"
	"ipra/internal/opt"
	"ipra/internal/parv"
	"ipra/internal/summary"
	"ipra/internal/telemetry"
)

// The layered replay rebuilds a workload's program (the base version, for
// the workloads that edit it) one layer call at a time, in one goroutine,
// timing each call into a layer's public function from outside: parse,
// check and lower each module, summarize it, analyze the program, then
// per module clone, apply web directives, optimize and generate code, and
// finally link and encode. It makes the calls ipra.Build makes, so its
// executable must be byte-equal to the build's, and its layer times must
// account for nearly all of its wall time.

// minCoverage is the share of replay wall time the layer times must
// account for; less means work is hiding between the measured calls.
const minCoverage = 0.95

// replayLayers are the replay's timed layers, in pipeline order, named by
// the metric each reports; their sum is the replay's attributed time.
var replayLayers = []string{
	"parser.ms", "sem.ms", "irgen.ms", "summary.ms", "core.ms",
	"ir.clone_ms", "opt.webs_ms", "opt.level2_ms", "codegen.ms", "parv.link_ms", "parv.exe_encode_ms",
}

// coreStages are the analyzer stage spans core.Analyze already emits.
var coreStages = []string{"callgraph", "refsets", "webs", "coloring", "clusters", "directives"}

// replayOut is one replay of a program set.
type replayOut struct {
	wall   time.Duration // the build layers only, without the state probe
	layers map[string]time.Duration
	stages map[string]time.Duration

	srcBytes, irInstrs, codegenInstrs int
	webs, websColored, clusters       int

	stateEncode, stateDecode time.Duration
	stateBytes               int

	exes [][]byte
}

// replayConfig is the configuration the replay rebuilds under: the
// paper's primary configuration C, which runs every layer.
func replayConfig(jobs int) ipra.Config { return preset("C", jobs) }

// replay rebuilds each program in progs layer by layer.
func replay(progs [][]ipra.Source) (*replayOut, error) {
	out := &replayOut{layers: make(map[string]time.Duration), stages: make(map[string]time.Duration)}
	for _, src := range progs {
		exe, err := out.program(src)
		if err != nil {
			return nil, err
		}
		out.exes = append(out.exes, exe)
	}
	return out, nil
}

// timed runs fn and charges its wall time to layer.
func (out *replayOut) timed(layer string, fn func() error) error {
	start := time.Now()
	err := fn()
	out.layers[layer] += time.Since(start)
	return err
}

func (out *replayOut) program(src []ipra.Source) ([]byte, error) {
	cfg := replayConfig(1)
	start := time.Now()
	mods := make([]*ir.Module, len(src))
	for i, s := range src {
		out.srcBytes += len(s.Text)
		var file *ast.File
		var sm *sem.Module
		err := out.timed("parser.ms", func() (err error) {
			file, err = parser.ParseFile(s.Name, s.Text)
			return err
		})
		if err == nil {
			err = out.timed("sem.ms", func() (err error) {
				sm, err = sem.Check(file)
				return err
			})
		}
		if err == nil {
			err = out.timed("irgen.ms", func() (err error) {
				mods[i], err = irgen.Generate(sm)
				return err
			})
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		out.irInstrs += irInstrs(mods[i])
	}

	sums := make([]*summary.ModuleSummary, len(mods))
	for i, m := range mods {
		out.timed("summary.ms", func() error {
			sums[i] = ipra.Summaries([]*ir.Module{m})[0]
			return nil
		})
	}

	o := cfg.Analyzer
	o.Jobs = 1
	o.Strategy = cfg.Strategy
	tracer := telemetry.New()
	var res *core.Result
	if err := out.timed("core.ms", func() (err error) {
		res, err = core.Analyze(telemetry.WithTracer(context.Background(), tracer), sums, o)
		return err
	}); err != nil {
		return nil, err
	}
	if an := tracer.Report().Find("analyze"); an != nil {
		for _, c := range an.Children {
			out.stages[c.Name] += time.Duration(c.Dur)
		}
	}
	out.webs += res.Stats.WebsFound
	out.websColored += res.Stats.WebsColored
	out.clusters += res.Stats.Clusters

	db := res.DB
	var eligible map[string]bool
	objs := make([]*parv.Object, len(mods))
	for i, m := range mods {
		var work *ir.Module
		out.timed("ir.clone_ms", func() error {
			work = m.Clone()
			return nil
		})
		for _, f := range work.Funcs {
			var skip map[string]bool
			out.timed("opt.webs_ms", func() error {
				if eligible == nil {
					eligible = make(map[string]bool, len(db.EligibleGlobals))
					for _, g := range db.EligibleGlobals {
						eligible[g] = true
					}
				}
				dir := db.Lookup(f.Name)
				skip = make(map[string]bool, len(dir.Promoted))
				for _, pg := range dir.Promoted {
					skip[pg.Name] = true
				}
				opt.ApplyWebDirectives(f, dir.Promoted)
				return nil
			})
			out.timed("opt.level2_ms", func() error {
				opt.Level2(f, eligible, skip)
				return nil
			})
		}
		if err := out.timed("codegen.ms", func() (err error) {
			objs[i], err = codegen.Compile(work, db)
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		for _, f := range objs[i].Funcs {
			out.codegenInstrs += len(f.Code)
		}
	}

	var exe *parv.Executable
	if err := out.timed("parv.link_ms", func() (err error) {
		exe, err = parv.Link(objs, parv.LinkConfig{DataSize: cfg.DataSize})
		return err
	}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := out.timed("parv.exe_encode_ms", func() error {
		return parv.EncodeExecutable(&buf, exe)
	}); err != nil {
		return nil, err
	}
	out.wall += time.Since(start)

	// The analyzer state an incremental build would persist, timed
	// outside the build's wall (no clean build writes it).
	st := core.NewState(res, sums, o)
	began := time.Now()
	state := st.Encode()
	out.stateEncode += time.Since(began)
	began = time.Now()
	if _, err := core.DecodeState(state); err != nil {
		return nil, fmt.Errorf("decode analyzer state: %w", err)
	}
	out.stateDecode += time.Since(began)
	out.stateBytes += len(state)
	return buf.Bytes(), nil
}

func irInstrs(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// coverage is the share of the replay's wall time its layers account for.
func (out *replayOut) coverage() float64 {
	var total time.Duration
	for _, l := range replayLayers {
		total += out.layers[l]
	}
	if out.wall <= 0 {
		return 0
	}
	return float64(total) / float64(out.wall)
}

// replayRepeats is how many replays a traced run makes; each metric is
// the median over them.
const replayRepeats = 3

// layerProfile runs the layered replay of progs and records the
// per-layer metrics. Every replay's executables must equal ipra.Build's
// and cover minCoverage of the replay's wall time; each replay counts as
// one attempted operation. buildWall is the untraced ipra.Build wall time
// for the whole program set (measured here when zero), the base of
// pipeline.speedup.
func layerProfile(ctx context.Context, o opts, r *result, progs [][]ipra.Source, buildWall time.Duration) error {
	cfg := replayConfig(o.jobs)
	cfg.DisableCache = true
	want := make([][]byte, len(progs))
	var builds []time.Duration
	for rep := 0; rep < replayRepeats; rep++ {
		start := time.Now()
		for i, src := range progs {
			res, err := ipra.Build(ctx, src, cfg)
			if err != nil {
				return fmt.Errorf("reference build: %w", err)
			}
			if want[i], err = exeBytes(res.Exe); err != nil {
				return err
			}
		}
		builds = append(builds, time.Since(start))
		if buildWall > 0 {
			break
		}
	}
	if buildWall <= 0 {
		buildWall = medianDur(builds)
	}

	var outs []*replayOut
	for rep := 0; rep < replayRepeats; rep++ {
		out, err := replay(progs)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		r.Attempted++
		for i := range progs {
			if !bytes.Equal(out.exes[i], want[i]) {
				r.fail("replay %d: program %d: executable differs from ipra.Build's", rep, i)
			}
		}
		if c := out.coverage(); c < minCoverage {
			r.fail("replay %d: layer times cover %.3f of wall time, want >= %.2f", rep, c, minCoverage)
		}
		outs = append(outs, out)
	}

	med := func(f func(*replayOut) float64) float64 {
		vs := make([]float64, len(outs))
		for i, out := range outs {
			vs[i] = f(out)
		}
		return median(vs)
	}
	for _, l := range replayLayers {
		r.set(l, med(func(x *replayOut) float64 { return ms(x.layers[l]) }), "ms")
	}
	for _, s := range coreStages {
		r.set("core."+s+"_ms", med(func(x *replayOut) float64 { return ms(x.stages[s]) }), "ms")
	}
	r.set("parser.src_bytes_per_s", med(func(x *replayOut) float64 {
		return float64(x.srcBytes) / x.layers["parser.ms"].Seconds()
	}), "B/s")
	first := outs[0]
	r.set("irgen.ir_instrs", float64(first.irInstrs), "count")
	r.set("codegen.instrs", float64(first.codegenInstrs), "count")
	r.set("core.webs", float64(first.webs), "count")
	r.set("core.webs_colored", float64(first.websColored), "count")
	r.set("core.clusters", float64(first.clusters), "count")
	r.set("core.state_encode_ms", med(func(x *replayOut) float64 { return ms(x.stateEncode) }), "ms")
	r.set("core.state_decode_ms", med(func(x *replayOut) float64 { return ms(x.stateDecode) }), "ms")
	r.set("core.state_bytes", float64(first.stateBytes), "bytes")
	r.set("replay.coverage", med(func(x *replayOut) float64 { return x.coverage() }), "ratio")
	wall := med(func(x *replayOut) float64 { return ms(x.wall) })
	r.set("replay.wall_ms", wall, "ms")
	r.set("pipeline.speedup", wall/ms(buildWall), "ratio")
	return nil
}
