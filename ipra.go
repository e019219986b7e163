// Package ipra is the public interface to an interprocedural register
// allocation system reproducing Santhanam & Odnert, "Register Allocation
// Across Procedure and Module Boundaries" (PLDI 1990).
//
// The system compiles MiniC (a C subset) for PARV (a PA-RISC-flavoured
// virtual machine) using the paper's two-pass organization:
//
//  1. The compiler first phase parses each module, produces intermediate
//     code, and emits a per-procedure summary record.
//  2. The program analyzer builds the program call graph from the
//     summaries and computes register allocation directives: webs of
//     global variables colored onto callee-saves registers (global
//     variable promotion) and cluster register-usage sets (spill code
//     motion). The directives go into a program database.
//  3. The compiler second phase optimizes and generates code for each
//     module independently, consulting the program database.
//  4. The linker binds the objects; the PARV simulator executes the result
//     and reports cycles, memory references, and call-edge profiles.
//
// Build is the single entry point: it drives the whole pipeline over a
// source set under one Config, with functional options selecting the
// call counts of a profiled configuration (WithProfile,
// WithAggregatedProfile), persistent incremental build state
// (WithBuildDir), and build-event telemetry (WithTelemetry). The named
// configurations of the paper's Table 4 come from the Presets registry
// ("L2" plus columns "A".."F").
package ipra

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strings"

	"ipra/internal/cache"
	"ipra/internal/codegen"
	"ipra/internal/core"
	"ipra/internal/incremental"
	"ipra/internal/ir"
	"ipra/internal/irgen"
	"ipra/internal/minic/parser"
	"ipra/internal/minic/sem"
	"ipra/internal/opt"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/pipeline"
	"ipra/internal/summary"
	"ipra/internal/telemetry"
	"ipra/internal/verify"
)

// Source is one MiniC module (compilation unit).
type Source struct {
	Name string // module name, e.g. "main.mc"
	Text []byte
}

// Config selects a compilation strategy.
type Config struct {
	// Name labels the configuration in reports ("L2", "A".."F").
	Name string
	// UseAnalyzer enables the program analyzer; when false the program is
	// compiled with level-2 (intraprocedural) optimization only.
	UseAnalyzer bool
	// Analyzer configures the program analyzer when enabled.
	Analyzer core.Options
	// Strategy names the allocation strategy the analyzer's coloring
	// stage runs ("" selects the default, the paper's priority coloring;
	// StrategyNames lists the others). Presets carry it explicitly; derive variants with
	// WithStrategy. The name participates in the daemon's request keys, so
	// a strategy switch never shares a cached result; over a build
	// directory it recompiles the modules whose phase-2 keys it moves.
	Strategy string
	// WantProfile marks configurations that use dynamic call counts
	// (§6.1): Build takes them from WithAggregatedProfile, or else runs a
	// training pass (bounded by WithProfile) to measure them.
	WantProfile bool
	// DataSize overrides the simulated data memory size (bytes).
	DataSize int32
	// Jobs bounds compiler parallelism: 0 uses one worker per CPU
	// (GOMAXPROCS), 1 forces the sequential path, higher values set the
	// pool size explicitly. Both compiler phases and the summary
	// computation are module-at-a-time and order-independent (§2, §4.3),
	// so the output is identical at every setting. The program analyzer
	// between the phases runs on the calling goroutine.
	Jobs int
	// DisableCache bypasses the process-wide phase-1/summary cache. The
	// cache is keyed on module source content, so hits are byte-for-byte
	// equivalent to recompiling; disable it only to measure cold-compile
	// costs.
	DisableCache bool
}

// AnalyzerOptions resolves the analyzer options a build pass hands the
// program analyzer: the configured options plus the pass's profile (nil
// for heuristic counts) and the allocation strategy.
func (c Config) AnalyzerOptions(profile *parv.Profile) core.Options {
	o := c.Analyzer
	o.Profile = profile
	if c.Strategy != "" {
		o.Strategy = c.Strategy
	}
	return o
}

// presetBuilders is the configuration registry: one constructor per named
// preset — the level-2 baseline plus the paper's Table 4 columns, in
// table order. Presets, PresetNames, and PresetByName derive from this
// single table, so commands and harnesses never hand-maintain parallel
// preset lists.
var presetBuilders = []struct {
	name  string
	build func() Config
}{
	{"L2", buildLevel2}, // level-2 baseline: global optimization only, standard linkage
	{"A", buildConfigA}, // spill code motion only
	{"B", buildConfigB}, // spill code motion with profile information
	{"C", buildConfigC}, // spill motion plus 6-register web coloring
	{"D", buildConfigD}, // spill motion plus greedy coloring
	{"E", buildConfigE}, // spill motion plus blanket promotion of the 6 hottest globals
	{"F", buildConfigF}, // configuration C with profile information
}

func buildLevel2() Config {
	return Config{Name: "L2", Strategy: DefaultStrategy}
}

func buildConfigA() Config {
	o := core.DefaultOptions()
	o.Promotion = core.PromoteNone
	return Config{Name: "A", UseAnalyzer: true, Analyzer: o, Strategy: DefaultStrategy}
}

func buildConfigB() Config {
	c := buildConfigA()
	c.Name = "B"
	c.WantProfile = true
	return c
}

func buildConfigC() Config {
	o := core.DefaultOptions()
	return Config{Name: "C", UseAnalyzer: true, Analyzer: o, Strategy: DefaultStrategy}
}

func buildConfigD() Config {
	o := core.DefaultOptions()
	o.Promotion = core.PromoteGreedy
	return Config{Name: "D", UseAnalyzer: true, Analyzer: o, Strategy: DefaultStrategy}
}

func buildConfigE() Config {
	o := core.DefaultOptions()
	o.Promotion = core.PromoteBlanket
	return Config{Name: "E", UseAnalyzer: true, Analyzer: o, Strategy: DefaultStrategy}
}

func buildConfigF() Config {
	c := buildConfigC()
	c.Name = "F"
	c.WantProfile = true
	return c
}

// Presets returns a freshly constructed configuration for every named
// preset: the "L2" baseline plus the paper's Table 4 columns "A".."F".
// Each call builds new values, so callers may mutate them freely.
func Presets() map[string]Config {
	m := make(map[string]Config, len(presetBuilders))
	for _, p := range presetBuilders {
		m[p.name] = p.build()
	}
	return m
}

// PresetNames lists the preset names in registry (Table 4) order:
// L2, A, B, C, D, E, F.
func PresetNames() []string {
	names := make([]string, len(presetBuilders))
	for i, p := range presetBuilders {
		names[i] = p.name
	}
	return names
}

// PresetByName resolves a preset name case-insensitively.
func PresetByName(name string) (Config, error) {
	for _, p := range presetBuilders {
		if strings.EqualFold(p.name, name) {
			return p.build(), nil
		}
	}
	return Config{}, fmt.Errorf("unknown configuration %q (want %s)", name, strings.Join(PresetNames(), ", "))
}

// MustPreset is PresetByName for known-good literal names; it panics on
// an unknown name. Examples and tests use it where a resolution error
// could only mean a typo.
func MustPreset(name string) Config {
	cfg, err := PresetByName(name)
	if err != nil {
		panic(err)
	}
	return cfg
}

// DefaultStrategy is the allocation strategy presets carry: the paper's
// priority-based web coloring.
const DefaultStrategy = core.DefaultStrategyName

// StrategyNames lists the allocation strategies, default first. Use with
// Config.WithStrategy or a CLI -strategy flag.
func StrategyNames() []string { return core.StrategyNames() }

// ResolveStrategy canonicalizes an allocation strategy name
// (case-insensitive; "" resolves to DefaultStrategy) or errors with the
// known names.
func ResolveStrategy(name string) (string, error) { return core.ResolveStrategy(name) }

// WithStrategy derives a configuration that allocates under the named
// strategy. The name is resolved lazily: an unknown strategy surfaces as
// a Build error.
func (c Config) WithStrategy(name string) Config {
	c.Strategy = name
	return c
}

// Configs returns the paper's full configuration sweep, Table 4 order
// (the Presets registry minus the L2 baseline).
func Configs() []Config {
	var out []Config
	for _, p := range presetBuilders {
		if p.name == "L2" {
			continue
		}
		out = append(out, p.build())
	}
	return out
}

// Program is a fully compiled and linked program plus the artifacts of
// each stage, for inspection and tests.
type Program struct {
	Config Config
	// Modules is each module's phase-1 artifact, the level-1 IR that
	// Phase1 returns, the summaries describe and Phase2 compiles. A
	// WithBuildDir build decodes a reused module's IR only when its phase
	// 2 re-runs, so the entry is nil for a module whose phase-1 record and
	// object were both reused.
	Modules   []*ir.Module
	Summaries []*summary.ModuleSummary
	Analysis  *core.Result // nil for Level2
	DB        *pdb.Database
	Objects   []*parv.Object
	Exe       *parv.Executable
}

// Phase1 runs the compiler first phase on one module: parse, check, lower
// to intermediate code and optimize it with opt.Level1. It returns the
// module's phase-1 artifact, the level-1 IR that Phase2 compiles, and the
// summary record the program analyzer reads (§3). cache.EncodeEntry of
// the two is the module's phase-1 record: the bytes a build directory
// stores, and the .p1 file of mcc -phase1.
func Phase1(src Source) (*ir.Module, *summary.ModuleSummary, error) {
	m, ms, _, err := phase1Module(context.Background(), src, cache.Key{}, false, false)
	return m, ms, err
}

// frontEnd parses, checks and lowers one module to raw IR.
func frontEnd(src Source) (*ir.Module, error) {
	file, err := parser.ParseFile(src.Name, src.Text)
	if err != nil {
		return nil, err
	}
	mod, err := sem.Check(file)
	if err != nil {
		return nil, err
	}
	return irgen.Generate(mod)
}

// Phase2 runs the compiler second phase on one module's level-1 IR
// (Phase1's artifact): apply the program database's directives, finish the
// optimizer, and generate code, what every Build does per module. It never
// mutates m; each procedure compiles on a clone of its own. The output is
// a pure function of the module IR and of what pdb's phase-2 keys cover:
// the property that lets phase 2 run module-at-a-time in any order (§4.3)
// and that the build directory's key diff relies on.
func Phase2(m *ir.Module, db *pdb.Database) (*parv.Object, error) {
	return phase2Module(context.Background(), m, db, db.EligibleSet(), nil)
}

// Summaries produces the summary record of each module of raw IR (a
// front end's output, before opt.Level1), fanning the independent
// per-module work across CPUs. Following the prototype described in §6,
// the first phase optimizes before summarizing: reference and call
// frequencies come from the level-1 IR, without global promotion (counts
// must reflect raw accesses), while the callee-saves register estimate
// comes from a fully optimized copy, since intraprocedural global
// promotion adds values that live across calls. The records equal the
// ones Phase1 and Build compute. It never mutates mods.
func Summaries(mods []*ir.Module) []*summary.ModuleSummary {
	out, _ := pipeline.Map(0, mods, func(_ int, m *ir.Module) (*summary.ModuleSummary, error) {
		work := m.Clone()
		level1(work)
		return summarize(work), nil
	})
	return out
}

// level1 runs opt.Level1 over every function of m, in place.
func level1(m *ir.Module) {
	for _, f := range m.Funcs {
		opt.Level1(f)
	}
}

// summarize computes the summary record of level-1 module m (see
// Summaries). It consumes m: the callee-saves estimates finish the level-2
// optimizer over it in place.
func summarize(m *ir.Module) *summary.ModuleSummary {
	ms := summary.SummarizeModule(m)
	byName := make(map[string]*summary.ProcRecord, len(ms.Procs))
	for i := range ms.Procs {
		byName[ms.Procs[i].Name] = &ms.Procs[i]
	}

	// Refine the register-need estimates once the level-2 optimizer has
	// finished (module-local eligibility approximates what phase 2 will
	// do).
	local := make(map[string]bool)
	for i := range ms.Globals {
		if g := &ms.Globals[i]; g.Eligible() {
			local[g.Name] = true
		}
	}
	for _, f := range m.Funcs {
		opt.Promote(f, local, nil)
		if rec := byName[f.Name]; rec != nil {
			rec.CalleeSavesNeeded = summary.EstimateCalleeSaves(f)
		}
	}
	return ms
}

// phase1Fingerprint versions the phase-1 artifacts. It must change
// whenever the parser, semantic analysis, IR generation, optimizer, or
// summary computation change meaning; no Config field reaches phase 1
// today, so the configuration contributes nothing beyond this constant.
const phase1Fingerprint = "ipra/phase1+summary/v2"

// phase1Cache is the process-wide content-addressed cache. The benchmark
// harness compiles every program once per configuration (L2 plus the six
// Table 4 columns, and twice more for the profile-guided ones); all of
// those runs share identical phase-1 output, which the cache serves as
// private decoded copies.
var phase1Cache = cache.New(0)

// CacheStats mirrors the phase-1 cache traffic counters.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// Phase1CacheStats returns a snapshot of the process-wide cache counters.
func Phase1CacheStats() CacheStats {
	s := phase1Cache.Stats()
	return CacheStats{Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions, Entries: s.Entries}
}

// ResetPhase1Cache empties the process-wide cache (tests, cold-compile
// measurements).
func ResetPhase1Cache() { phase1Cache.Reset() }

// phase1Module produces one module's phase-1 artifact — its level-1 IR —
// and summary, serving both from the cache when the source content has
// been compiled before.
// It also returns the record's wire bytes when anyone wants them: the
// cache's bytes on a hit or a Put, or one encoding when wantRecord asks
// for them with the cache off. Under telemetry it runs as a "module" span
// with "frontend" and "summarize" children on the miss path, and ticks
// the cache counters.
func phase1Module(ctx context.Context, src Source, key cache.Key, useCache, wantRecord bool) (*ir.Module, *summary.ModuleSummary, []byte, error) {
	ctx, span := telemetry.StartSpan(ctx, "module")
	defer span.End()
	span.SetStr("module", src.Name)
	if useCache {
		if m, ms, data, ok := phase1Cache.Get(ctx, key); ok {
			span.SetStr("cache", "hit")
			return m, ms, data, nil
		}
		span.SetStr("cache", "miss")
	}
	_, feSpan := telemetry.StartSpan(ctx, "frontend")
	m, err := frontEnd(src)
	feSpan.End()
	if err != nil {
		return nil, nil, nil, err
	}
	_, sumSpan := telemetry.StartSpan(ctx, "summarize")
	level1(m)
	ms := summarize(m.Clone())
	sumSpan.End()
	var data []byte
	switch {
	case useCache:
		data = phase1Cache.Put(ctx, key, m, ms)
	case wantRecord:
		data = cache.EncodeEntry(m, ms)
	}
	return m, ms, data, nil
}

// BuildOption configures one Build call.
type BuildOption func(*buildSettings)

// buildSettings is the resolved option set of one Build.
type buildSettings struct {
	trainInstrs uint64
	profile     *parv.Profile
	buildDir    string
	tracer      *telemetry.Tracer
	stderr      io.Writer
	verify      bool
}

// trainBound is the training-run bound WithProfile overrides.
const trainBound = 100_000_000

// WithProfile bounds the training run of a profiled configuration
// (Config.WantProfile; Table 4 columns B and F) to maxInstrs simulated
// instructions in place of trainBound, 100 M — far past the longest
// benchmark run (22.2 M, war under L2), and a program that never halts
// fails in about a second; 0 uses the simulator's own bound. A
// configuration that runs no training pass ignores it.
func WithProfile(maxInstrs uint64) BuildOption {
	return func(s *buildSettings) { s.trainInstrs = maxInstrs }
}

// WithAggregatedProfile supplies the call counts of a profiled
// configuration from outside the build — typically a fleet aggregate's
// mean profile (internal/profagg) — so no training pass runs. The analyzer
// consumes p exactly as it would a training run's profile, so the output
// is byte-identical to a build whose training run happened to produce p.
// On a configuration without WantProfile, Build fails.
func WithAggregatedProfile(p *parv.Profile) BuildOption {
	return func(s *buildSettings) { s.profile = p }
}

// WithBuildDir makes the build incremental against a persistent build
// directory (created if missing): phase 1 re-runs only for modules whose
// source changed, the analyzer always re-runs, and phase 2 re-runs only
// for modules whose phase-1 record or phase-2 keys changed, and of a
// module whose keys alone moved only for the procedures that read a moved
// key. The output is byte-identical to a from-scratch Build; the rebuild
// record lands in BuildResult.Incremental. Profile-guided builds keep
// their training pass in a "train" subdirectory so repeat builds skip it
// too. An empty dir disables the option.
func WithBuildDir(dir string) BuildOption {
	return func(s *buildSettings) { s.buildDir = dir }
}

// WithTelemetry attaches a tracer: every pipeline stage, per-module
// compile, analyzer stage, and incremental invalidation decision is
// recorded as a span or event on t, with cache and rebuild counters
// alongside, and a snapshot lands in BuildResult.Report. Export with
// t.WriteChromeTrace (chrome://tracing, Perfetto) or t.Report. A tracer
// already attached to ctx via telemetry.WithTracer works the same way.
func WithTelemetry(t *telemetry.Tracer) BuildOption {
	return func(s *buildSettings) { s.tracer = t }
}

// WithStderr directs diagnostic output — a WithBuildDir build's
// per-module rebuild explanations — to w.
func WithStderr(w io.Writer) BuildOption {
	return func(s *buildSettings) { s.stderr = w }
}

// WithVerify runs the internal/verify invariant checker over the program
// analyzer's output after each analysis (including the training pass of a
// profiled build). Every violation is recorded as a telemetry instant
// event ("verify.violation") and counted on "verify.violations", and the
// build fails with an error listing them. Builds without an analyzer pass
// (Level2) have nothing to verify and are unaffected.
func WithVerify() BuildOption {
	return func(s *buildSettings) { s.verify = true }
}

// verifyAnalysis checks one compiled program's analysis against the
// paper's invariants (no-op when the configuration ran no analyzer).
func verifyAnalysis(ctx context.Context, p *Program) error {
	if p == nil || p.Analysis == nil {
		return nil
	}
	res := p.Analysis
	violations := verify.Check(res.Graph, res.Sets, res.DB)
	for _, v := range violations {
		ev := telemetry.Event(ctx, "verify.violation")
		ev.SetStr("class", v.Class)
		ev.SetStr("proc", v.Proc)
		ev.SetStr("detail", v.Detail)
	}
	telemetry.Count(ctx, "verify.violations", int64(len(violations)))
	if len(violations) == 0 {
		return nil
	}
	msgs := make([]string, len(violations))
	for i, v := range violations {
		msgs[i] = v.String()
	}
	return fmt.Errorf("verify: %d allocation invariant violation(s):\n  %s",
		len(violations), strings.Join(msgs, "\n  "))
}

// BuildResult is the outcome of one Build: the compiled program (its
// fields are promoted, so result.Exe, result.Analysis, ... read
// directly), plus the artifacts of the options in effect.
type BuildResult struct {
	*Program
	// Train is the training run of a profiled build (nil when no
	// training pass ran).
	Train *RunResult
	// Incremental is the rebuild record of a WithBuildDir build
	// (nil otherwise).
	Incremental *incremental.Outcome
	// Report is the telemetry snapshot of this build (nil unless a tracer
	// was attached).
	Report *telemetry.Report
}

// Build runs the full two-pass pipeline over the sources: compiler first
// phase and summaries, program analyzer (when cfg.UseAnalyzer), compiler
// second phase, and link, fanning the module-at-a-time phases across
// cfg.Jobs workers with output byte-identical to a sequential run.
// Module names must be unique. A profiled configuration (WantProfile)
// takes its call counts from WithAggregatedProfile or else trains (§6.1);
// other options select persistent incremental build state (WithBuildDir)
// and telemetry (WithTelemetry). Every build runs the same driver; a build
// without a build directory is one with no store to reuse from.
func Build(ctx context.Context, sources []Source, cfg Config, opts ...BuildOption) (*BuildResult, error) {
	s := buildSettings{trainInstrs: trainBound}
	for _, o := range opts {
		o(&s)
	}
	if s.tracer != nil {
		ctx = telemetry.WithTracer(ctx, s.tracer)
	}
	bctx, span := telemetry.StartSpan(ctx, "build")
	span.SetStr("config", cfg.Name)
	span.SetInt("modules", int64(len(sources)))
	span.SetInt("jobs", int64(pipeline.Workers(cfg.Jobs)))

	res := &BuildResult{}
	err := runBuild(bctx, sources, cfg, s, res)
	span.End()
	if err != nil {
		return nil, err
	}
	if t := telemetry.FromContext(bctx); t != nil {
		res.Report = t.Report()
	}
	return res, nil
}

// runBuild dispatches one Build under its resolved settings. It is the
// one place that decides where the analyzer's call counts come from: a
// configuration without WantProfile estimates them (Analyze rejects a
// profile for it), and a profiled one takes the aggregated profile or
// else trains.
func runBuild(ctx context.Context, sources []Source, cfg Config, s buildSettings, res *BuildResult) error {
	profile := s.profile
	if profile == nil && cfg.WantProfile {
		// Profile-guided (§6.1): compile with heuristic counts, run once
		// to collect call counts, then re-analyze and re-compile with the
		// profile. Incremental builds keep the training pass's state in a
		// "train" subdirectory, so the profiled directives in the main
		// store are never churned by the training pass and a no-edit
		// rebuild of both passes recompiles nothing.
		trainDir := ""
		if s.buildDir != "" {
			trainDir = filepath.Join(s.buildDir, "train")
		}
		first, _, err := buildPass(ctx, sources, cfg, nil, trainDir, s.stderr)
		if err != nil {
			return err
		}
		if s.verify {
			if err := verifyAnalysis(ctx, first); err != nil {
				return fmt.Errorf("training pass: %w", err)
			}
		}
		_, runSpan := telemetry.StartSpan(ctx, "train-run")
		res.Train, err = first.Run(s.trainInstrs, true)
		runSpan.End()
		if err != nil {
			return fmt.Errorf("profiling run: %w", err)
		}
		profile = res.Train.Profile
	}
	p, out, err := buildPass(ctx, sources, cfg, profile, s.buildDir, s.stderr)
	if err != nil {
		return err
	}
	if s.verify {
		if err := verifyAnalysis(ctx, p); err != nil {
			return err
		}
	}
	res.Program, res.Incremental = p, out
	return nil
}

// buildPass runs the pipeline once over the sources: phase 1 → analyze →
// diff → phase 2 → link → persist. The analyzer takes its call counts from
// profile, or estimates them when profile is nil. With a build directory
// the pass reuses every artifact the stored state proves current,
// persists the new state, and returns the record of what it rebuilt and
// why (explained on explainW when non-nil). Without one (dir == "") there
// is no store: every module compiles, nothing is loaded or persisted, and
// the Outcome is nil. Reuse is pure memoization, so the program is
// byte-identical either way.
//
// Phase 1, the summaries, and phase 2 fan out across cfg.Jobs workers
// into position-indexed slices, so the output is identical to a
// sequential (Jobs: 1) pass.
//
// The configuration needs no fingerprint of its own in the build state:
// nothing in Config reaches phase 1, the analyzer re-runs whole on every
// pass, and phase 2 sees the configuration only through the program
// database, of which each module's phase-2 keys cover everything phase 2
// reads. Switching configurations, allocation strategies or profiles over
// one build directory therefore rebuilds exactly the modules whose keys
// the switch changes.
func buildPass(ctx context.Context, sources []Source, cfg Config, profile *parv.Profile, dir string, explainW io.Writer) (*Program, *incremental.Outcome, error) {
	ctx, span := telemetry.StartSpan(ctx, "incremental")
	defer span.End()
	span.SetInt("modules", int64(len(sources)))

	if err := checkModuleNames(sources, func(src Source) string { return src.Name }); err != nil {
		return nil, nil, err
	}
	n := len(sources)
	names := make([]string, n)
	for i, src := range sources {
		names[i] = src.Name
	}
	toolchain := ToolchainFingerprint()
	var st *incremental.Store
	if dir != "" {
		span.SetStr("dir", dir)
		var err error
		if st, err = incremental.Open(dir, toolchain, names); err != nil {
			return nil, nil, err
		}
	}
	p := &Program{
		Config:    cfg,
		Modules:   make([]*ir.Module, n),
		Summaries: make([]*summary.ModuleSummary, n),
		Objects:   make([]*parv.Object, n),
	}

	// ---- Compiler first phase + summaries, for every module the store
	// cannot serve. One source key per module serves both the store and
	// the cache; a build with neither hashes nothing.
	useCache := !cfg.DisableCache
	p1ctx, p1Span := telemetry.StartSpan(ctx, "phase1")
	err := pipeline.ForEachCtx(p1ctx, cfg.Jobs, n, func(ctx context.Context, i int) error {
		var key cache.Key
		if st != nil || useCache {
			key = cache.SourceKey(sources[i].Name, sources[i].Text, toolchain)
		}
		ms, ok := st.ReusePhase1(ctx, i, key)
		if !ok {
			m, fresh, data, err := phase1Module(ctx, sources[i], key, useCache, st != nil)
			if err != nil {
				return fmt.Errorf("%s: %w", sources[i].Name, err)
			}
			st.SetPhase1(ctx, i, data)
			p.Modules[i], ms = m, fresh
		}
		p.Summaries[i] = ms
		return nil
	})
	p1Span.End()
	if err != nil {
		return nil, nil, err
	}

	// ---- Program analyzer: always re-run on the whole summary set.
	if p.DB, p.Analysis, err = Analyze(ctx, p.Summaries, cfg, profile); err != nil {
		return nil, nil, err
	}

	// ---- Key diff: decide phase 2 per module.
	dctx, diffSpan := telemetry.StartSpan(ctx, "diff")
	st.Diff(dctx, p.Summaries, p.DB)
	diffSpan.End()

	// ---- Compiler second phase for every module the store cannot serve
	// (order-independent; the program database is shared read-only). A
	// module whose phase-1 record was reused has no IR yet: it is decoded
	// here, and only for the modules phase 2 compiles. A module whose keys
	// alone moved compiles only its stale procedures and keeps the rest of
	// its stored object.
	eligible := p.DB.EligibleSet()
	p2ctx, p2Span := telemetry.StartSpan(ctx, "phase2")
	err = pipeline.ForEachCtx(p2ctx, cfg.Jobs, n, func(ctx context.Context, i int) error {
		obj, keep := st.ReuseObject(i)
		if obj != nil {
			p.Objects[i] = obj
			return nil
		}
		var err error
		if p.Modules[i] == nil {
			if p.Modules[i], err = st.Module(i); err != nil {
				return fmt.Errorf("%s: %w", sources[i].Name, err)
			}
		}
		p.Objects[i], err = phase2Module(ctx, p.Modules[i], p.DB, eligible, keep)
		return err
	})
	p2Span.End()
	if err != nil {
		return nil, nil, err
	}

	// ---- Link, always: it is whole-program and reads every object.
	_, linkSpan := telemetry.StartSpan(ctx, "link")
	p.Exe, err = parv.Link(p.Objects, parv.LinkConfig{DataSize: cfg.DataSize})
	linkSpan.End()
	if err != nil {
		return nil, nil, err
	}

	// ---- Persist the new state.
	if st == nil {
		return p, nil, nil
	}
	_, persistSpan := telemetry.StartSpan(ctx, "persist")
	err = st.Persist(p.Objects)
	persistSpan.End()
	if err != nil {
		return nil, nil, err
	}
	return p, st.Outcome(ctx, explainW), nil
}

// Analyze is the program analyzer step of every build, and of
// ipra-analyze between the file flow's two compiler phases (§2, Figure
// 1): it reads the whole program's summaries and returns the program
// database phase 2 compiles under, with the analysis behind it. A
// configuration without the analyzer (L2) gets a database holding only
// the program-wide eligibility list, under which phase 2 promotes every
// unaliased global within each procedure, and a nil analysis. Otherwise
// the analyzer runs under cfg.AnalyzerOptions(profile): the profile's call
// counts, or estimated ones when profile is nil (a profiled
// configuration's training pass). A profile under a configuration that
// estimates its counts is an error naming the configuration, and so are
// two summaries of one module. The analysis is whole on every build
// (§4.3): a build directory stores nothing of it.
func Analyze(ctx context.Context, sums []*summary.ModuleSummary, cfg Config, profile *parv.Profile) (*pdb.Database, *core.Result, error) {
	if err := checkModuleNames(sums, func(ms *summary.ModuleSummary) string { return ms.Module }); err != nil {
		return nil, nil, err
	}
	if profile != nil && !cfg.WantProfile {
		return nil, nil, fmt.Errorf("configuration %s estimates its call counts; a profile needs a profiled configuration (B or F)", cfg.Name)
	}
	if !cfg.UseAnalyzer {
		db := pdb.New()
		db.EligibleGlobals = summary.EligibleNames(summary.MergeGlobals(sums))
		return db, nil, nil
	}
	res, err := core.Analyze(ctx, sums, cfg.AnalyzerOptions(profile))
	if err != nil {
		return nil, nil, err
	}
	return res.DB, res, nil
}

// checkModuleNames rejects a program that holds one module twice: a
// build's sources, or the summaries the analyzer reads, each named by name.
func checkModuleNames[T any](mods []T, name func(T) string) error {
	seen := make(map[string]bool, len(mods))
	for _, m := range mods {
		if seen[name(m)] {
			return fmt.Errorf("duplicate module name %q", name(m))
		}
		seen[name(m)] = true
	}
	return nil
}

// phase2Module is the compiler second phase of level-1 module m, under a
// "module" span: the module's data symbols, then each procedure in module
// order, either the code keep holds for it (a store's salvage of the
// module's previous object) or phase2Func's. A nil keep compiles every
// procedure. It never mutates m, and it takes the database's eligibility
// set from the caller, computed once per build rather than once per
// module.
func phase2Module(ctx context.Context, m *ir.Module, db *pdb.Database, eligible map[string]bool, keep []*parv.ObjFunc) (*parv.Object, error) {
	_, span := telemetry.StartSpan(ctx, "module")
	defer span.End()
	span.SetStr("module", m.Name)
	obj := &parv.Object{Module: m.Name, Globals: codegen.Data(m)}
	if len(m.Funcs) > 0 {
		obj.Funcs = make([]*parv.ObjFunc, len(m.Funcs))
	}
	compiled := 0
	for j, f := range m.Funcs {
		if j < len(keep) && keep[j] != nil && keep[j].Name == f.Name {
			obj.Funcs[j] = keep[j]
			continue
		}
		of, err := phase2Func(f, m, db, eligible)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		obj.Funcs[j] = of
		compiled++
	}
	span.SetInt("procs", int64(len(m.Funcs)))
	span.SetInt("procs_recompiled", int64(compiled))
	return obj, nil
}

// phase2Func compiles procedure f of level-1 module m on a clone of f:
// optimizeFunc, then code generation. It reads f, m's globals, f's own
// directives, the clobber contracts of f's direct callees and the
// eligibility of the globals f names: what pdb's phase-2 keys of f, its
// callees and m's globals cover, which is what lets a store reuse the
// code of every procedure none of those keys moved for.
func phase2Func(f *ir.Func, m *ir.Module, db *pdb.Database, eligible map[string]bool) (*parv.ObjFunc, error) {
	f = f.Clone()
	optimizeFunc(f, db, eligible)
	return codegen.CompileFunc(f, m, db)
}

// optimizeFunc applies the database's web directives to level-1 function
// f and finishes the level-2 optimizer over it (opt.Promote), in place.
// What it reads of the database is part of pdb's phase-2 keys; keep the
// two in step.
func optimizeFunc(f *ir.Func, db *pdb.Database, eligible map[string]bool) {
	dir := db.Lookup(f.Name)
	skip := make(map[string]bool, len(dir.Promoted))
	for _, pg := range dir.Promoted {
		skip[pg.Name] = true
	}
	// Web-promoted globals become pinned register references before
	// scalar optimization, so copy propagation folds them into their uses
	// (§5).
	opt.ApplyWebDirectives(f, dir.Promoted)
	opt.Promote(f, eligible, skip)
}

// phase2Fingerprint versions the persisted phase-2 artifacts (objects in
// an incremental build directory). It must change whenever the optimizer,
// directive application, code generator, or object format change meaning.
const phase2Fingerprint = "ipra/phase2+codegen/v2"

// ToolchainFingerprint identifies this binary's compilation semantics:
// every persistent or shared artifact (incremental build state, a build
// daemon's caches) is keyed or guarded by it, so artifacts produced under
// different semantics are rebuilt rather than reused. It combines both
// phase fingerprints with the Go toolchain version; two binaries with
// equal fingerprints produce byte-identical output for identical inputs.
func ToolchainFingerprint() string {
	return phase1Fingerprint + "|" + phase2Fingerprint + "|" + runtime.Version()
}

// RunResult is the outcome of executing a compiled program on the
// simulator.
type RunResult struct {
	Exit    int32
	Output  string
	Stats   parv.Stats
	Profile *parv.Profile
}

// Run executes the program on the PARV simulator, collecting statistics
// and (when profile is true) call-edge counts.
func (p *Program) Run(maxInstrs uint64, profile bool) (*RunResult, error) {
	vm := parv.NewVM(p.Exe)
	vm.ProfileEdges = profile
	exit, err := vm.Run(maxInstrs)
	if err != nil {
		return nil, err
	}
	res := &RunResult{Exit: exit, Output: vm.Output(), Stats: vm.Stats}
	if profile {
		res.Profile = vm.Profile()
	}
	return res, nil
}
