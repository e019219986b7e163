package ipra

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"testing"

	"ipra/internal/telemetry"
)

// tracedProgram is a small two-module program with cross-module globals
// (so the analyzer finds webs to color and clusters to form) and enough
// calls in a loop for a profiled training run to be meaningful.
func tracedProgram() []Source {
	return []Source{
		src("main.mc", `
extern int total;
extern int step;
int bump(int x);
int main() {
	int i;
	total = 0;
	step = 3;
	for (i = 0; i < 1000; i++) {
		bump(i);
	}
	return total & 127;
}
`),
		src("lib.mc", `
int total;
int step;
int bump(int x) {
	total += step + (x & 1);
	return total;
}
`),
	}
}

// chromeEvent mirrors the subset of the Chrome trace-event format the
// exporter emits.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// span returns the half-open interval of an X event.
func (e *chromeEvent) end() float64 { return e.Ts + e.Dur }

// contains reports whether inner lies within outer, with a small epsilon
// for the nanosecond -> float microsecond conversion.
func contains(outer, inner *chromeEvent) bool {
	const eps = 1e-6
	return outer.Ts-eps <= inner.Ts && inner.end() <= outer.end()+eps
}

// validateTrace checks the trace is structurally a Chrome trace: every
// event carries a name and a known phase, and the X slices on each track
// are properly nested (no partial overlap). It returns the X events by
// name and the final counter values.
func validateTrace(t *testing.T, data []byte) (map[string][]*chromeEvent, map[string]float64) {
	t.Helper()
	var tr chromeFile
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	byName := make(map[string][]*chromeEvent)
	counters := make(map[string]float64)
	perTid := make(map[int][]*chromeEvent)
	for i := range tr.TraceEvents {
		e := &tr.TraceEvents[i]
		if e.Name == "" {
			t.Fatalf("event %d has no name", i)
		}
		switch e.Ph {
		case "X":
			if e.Dur < 0 {
				t.Errorf("slice %q has negative duration %v", e.Name, e.Dur)
			}
			byName[e.Name] = append(byName[e.Name], e)
			perTid[e.Tid] = append(perTid[e.Tid], e)
		case "i":
			byName[e.Name] = append(byName[e.Name], e)
		case "C":
			if v, ok := e.Args["value"].(float64); ok {
				counters[e.Name] = v
			} else {
				t.Errorf("counter %q has no numeric value", e.Name)
			}
		default:
			t.Errorf("event %q has unexpected phase %q", e.Name, e.Ph)
		}
	}

	// Chrome renders each tid as one track of nested slices; partial
	// overlap within a track would render garbage.
	const eps = 1e-6
	for tid, evs := range perTid {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Ts != evs[j].Ts {
				return evs[i].Ts < evs[j].Ts
			}
			return evs[i].Dur > evs[j].Dur
		})
		var stack []*chromeEvent
		for _, e := range evs {
			for len(stack) > 0 && stack[len(stack)-1].end() <= e.Ts+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && !contains(stack[len(stack)-1], e) {
				top := stack[len(stack)-1]
				t.Errorf("tid %d: slice %q [%v,%v] partially overlaps %q [%v,%v]",
					tid, e.Name, e.Ts, e.end(), top.Name, top.Ts, top.end())
			}
			stack = append(stack, e)
		}
	}
	return byName, counters
}

// requireNested asserts every slice named child lies inside some slice
// named parent.
func requireNested(t *testing.T, byName map[string][]*chromeEvent, parent, child string) {
	t.Helper()
	parents := byName[parent]
	children := byName[child]
	if len(children) == 0 {
		t.Errorf("no %q spans in trace", child)
		return
	}
	for _, c := range children {
		ok := false
		for _, p := range parents {
			if contains(p, c) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%q span [%v,%v] not nested inside any %q span", child, c.Ts, c.end(), parent)
		}
	}
}

// TestTracedBuildChromeTrace is the golden telemetry test: a traced
// profile-guided ConfigF build must export a well-formed Chrome
// trace-event JSON with properly nested spans for both compiler phases,
// the summary computation, every analyzer stage, and the link, alongside
// cache hit/miss counters.
func TestTracedBuildChromeTrace(t *testing.T) {
	ResetPhase1Cache()
	cfg := MustPreset("F")
	cfg.Jobs = 4

	tr := telemetry.New()
	res, err := Build(context.Background(), tracedProgram(), cfg, WithTelemetry(tr), WithProfile(10_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Train == nil {
		t.Fatal("profiled build returned no training run")
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	byName, counters := validateTrace(t, buf.Bytes())

	// Top-level shape: one build span holding two driver passes (train +
	// final) and the training run.
	if n := len(byName["build"]); n != 1 {
		t.Errorf("build spans = %d, want 1", n)
	}
	if n := len(byName["incremental"]); n != 2 {
		t.Errorf("incremental spans = %d, want 2 (train + final)", n)
	}
	requireNested(t, byName, "build", "incremental")
	requireNested(t, byName, "build", "train-run")

	// Pipeline stages nest inside a driver pass.
	for _, stage := range []string{"phase1", "analyze", "diff", "phase2", "link"} {
		requireNested(t, byName, "incremental", stage)
	}
	// Per-module spans: 2 modules x 2 passes in each compiler phase.
	if n := len(byName["module"]); n != 8 {
		t.Errorf("module spans = %d, want 8 (2 modules x 2 phases x 2 passes)", n)
	}
	// The summary computation and frontend run per module on the miss
	// pass only.
	requireNested(t, byName, "module", "frontend")
	requireNested(t, byName, "module", "summarize")
	if n := len(byName["summarize"]); n != 2 {
		t.Errorf("summarize spans = %d, want 2 (second pass is served from cache)", n)
	}

	// Every analyzer stage nests inside the analyze span.
	for _, stage := range []string{"callgraph", "refsets", "webs", "coloring", "clusters", "directives"} {
		requireNested(t, byName, "analyze", stage)
	}

	// Cache counters: the training pass misses cold, the final pass hits.
	if counters["cache.misses"] != 2 {
		t.Errorf("cache.misses = %v, want 2", counters["cache.misses"])
	}
	if counters["cache.hits"] != 2 {
		t.Errorf("cache.hits = %v, want 2", counters["cache.hits"])
	}
	for _, c := range []string{"analyzer.webs", "analyzer.webs_colored"} {
		if _, ok := counters[c]; !ok {
			t.Errorf("counter %q missing from trace", c)
		}
	}

	// The structured report sees the same build.
	if res.Report == nil {
		t.Fatal("BuildResult.Report is nil with telemetry attached")
	}
	if res.Report.Find("build") == nil {
		t.Error("report has no build span")
	}
	if res.Report.Counters["cache.hits"] != 2 {
		t.Errorf("report cache.hits = %d, want 2", res.Report.Counters["cache.hits"])
	}
	var rbuf bytes.Buffer
	if err := res.Report.WriteJSON(&rbuf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(rbuf.Bytes()) {
		t.Error("report JSON does not parse")
	}
}

// TestTracedParallelBuildDeterminism runs a traced wide-parallel build
// and an untraced sequential build of the same program and requires
// byte-identical executables: telemetry must never perturb output, and
// under -race this doubles as the tracer's concurrency test on the real
// build path.
func TestTracedParallelBuildDeterminism(t *testing.T) {
	sources := tracedProgram()

	seqCfg := MustPreset("C")
	seqCfg.Jobs = 1
	seqCfg.DisableCache = true
	seq, err := Build(context.Background(), sources, seqCfg)
	if err != nil {
		t.Fatal(err)
	}

	parCfg := MustPreset("C")
	parCfg.Jobs = 8
	parCfg.DisableCache = true
	tr := telemetry.New()
	par, err := Build(context.Background(), sources, parCfg, WithTelemetry(tr))
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(exeBytes(t, seq.Exe), exeBytes(t, par.Exe)) {
		t.Error("traced parallel build produced a different executable than the untraced sequential build")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	byName, _ := validateTrace(t, buf.Bytes())
	if len(byName["worker"]) == 0 {
		t.Error("parallel traced build recorded no worker spans")
	}
}

// TestDisabledTelemetryZeroAllocOnBuildPath pins the nil-sink fast path
// at the API boundary: the exact telemetry calls the build pipeline makes
// must not allocate when no tracer is attached.
func TestDisabledTelemetryZeroAllocOnBuildPath(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sctx, span := telemetry.StartSpan(ctx, "phase1")
		span.SetStr("module", "main.mc")
		span.SetInt("jobs", 8)
		telemetry.Count(sctx, "cache.hits", 1)
		ev := telemetry.Event(sctx, "invalidate-phase1")
		ev.SetStr("reason", "source changed")
		ev.End()
		span.End()
	})
	if allocs != 0 {
		t.Errorf("disabled telemetry allocates %.1f times per span on the build path, want 0", allocs)
	}
}

// BenchmarkCompileParallelTraced is BenchmarkCompileParallel with a live
// tracer attached; compare allocs/op and ns/op against the untraced
// variant to see the cost of tracing (and its absence when disabled).
func BenchmarkCompileParallelTraced(b *testing.B) {
	sources := tracedProgram()
	cfg := MustPreset("C")
	cfg.DisableCache = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(context.Background(), sources, cfg, WithTelemetry(telemetry.New())); err != nil {
			b.Fatal(err)
		}
	}
}
