package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics every workload reports with tracing off: what a
// user of a build, a daemon request or a benchmark sweep sees. BENCHMARK.json
// lists the same names and units, with their regression bounds. Latency is
// bounded as a multiple of the reference task's time (reftask.go); the raw
// latency_ms and ops_per_s are printed beside it.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"latency_norm.p50", "ratio"},
	{"latency_norm.p90", "ratio"},
	{"peak_rss_mb", "MB"},
	{"exe_bytes", "bytes"},
}

// perLayer are the metrics every workload reports with tracing on. They
// come from the layered replay (replay.go) of the workload's own program,
// so each one is measured on every workload; the metrics only one
// workload can measure (incremental store, daemon, simulator) are
// reported alongside them but are not part of this list.
var perLayer = []spec{
	{"parser.ms", "ms"},
	{"parser.src_bytes_per_s", "B/s"},
	{"sem.ms", "ms"},
	{"irgen.ms", "ms"},
	{"irgen.ir_instrs", "count"},
	{"summary.ms", "ms"},
	{"core.ms", "ms"},
	{"core.callgraph_ms", "ms"},
	{"core.refsets_ms", "ms"},
	{"core.webs_ms", "ms"},
	{"core.coloring_ms", "ms"},
	{"core.clusters_ms", "ms"},
	{"core.directives_ms", "ms"},
	{"core.webs", "count"},
	{"core.webs_colored", "count"},
	{"core.clusters", "count"},
	{"core.state_encode_ms", "ms"},
	{"core.state_decode_ms", "ms"},
	{"core.state_bytes", "bytes"},
	{"ir.clone_ms", "ms"},
	{"opt.webs_ms", "ms"},
	{"opt.level2_ms", "ms"},
	{"codegen.ms", "ms"},
	{"codegen.instrs", "count"},
	{"parv.link_ms", "ms"},
	{"parv.exe_encode_ms", "ms"},
	{"pipeline.speedup", "ratio"},
	{"replay.coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: the counts the output contract asks for,
// every metric measured (the contract's list and the workload's own), and
// the sample count behind each timing distribution.
type result struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples,omitempty"`
	Errors    []string          `json:"errors,omitempty"`
	Env       env               `json:"env"`
}

func newResult(workload string, o opts) *result {
	return &result{
		Workload: workload,
		Trace:    o.trace,
		Metrics:  make(map[string]metric),
		Samples:  make(map[string]int),
	}
}

// maxErrors bounds the failure messages a result keeps; the count of
// failures is always exact.
const maxErrors = 20

// fail records one failed operation.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// timing records a latency distribution as its median and 90th
// percentile, in milliseconds, plus its sample count.
func (r *result) timing(prefix string, ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	ms := millis(ds)
	sort.Float64s(ms)
	r.set(prefix+".p50", quantile(ms, 0.5), "ms")
	r.set(prefix+".p90", quantile(ms, 0.9), "ms")
	r.Samples[prefix] = len(ms)
}

// refSpacing is how much operation time passes between reference tasks:
// shorter operations share the reference time taken after the last of
// them, so that the task, about 30 ms, takes at most a quarter of a window.
const refSpacing = 100 * time.Millisecond

// opTimes are the timed operations of a window, each with the reference
// task time (reftask.go) taken after it.
type opTimes struct {
	jobs    int
	op, ref []time.Duration
	pending time.Duration // operation time since the last reference task
}

// add records an operation that took d, and times the reference task once
// refSpacing of operation time has passed since it last ran.
func (t *opTimes) add(d time.Duration) {
	t.op = append(t.op, d)
	if t.pending += d; t.pending >= refSpacing {
		t.flush()
	}
}

// flush times the reference task for the operations recorded since it
// last ran.
func (t *opTimes) flush() {
	if len(t.ref) == len(t.op) {
		return
	}
	ref := refTask(t.jobs)
	for len(t.ref) < len(t.op) {
		t.ref = append(t.ref, ref)
	}
	t.pending = 0
}

// latency records latency_norm.p50 and .p90, the distribution of each
// operation's time over its reference time, and, in milliseconds,
// latency_ms.p50 and .p90 and the reference task's median ref_ms.p50.
func (r *result) latency(t *opTimes) {
	if len(t.op) == 0 {
		return
	}
	t.flush()
	r.timing("latency_ms", t.op)
	r.set("ref_ms.p50", ms(medianDur(t.ref)), "ms")
	norm := make([]float64, len(t.op))
	for i, d := range t.op {
		norm[i] = float64(d) / float64(t.ref[i])
	}
	sort.Float64s(norm)
	r.set("latency_norm.p50", quantile(norm, 0.5), "ratio")
	r.set("latency_norm.p90", quantile(norm, 0.9), "ratio")
}

// setRate records n operations per second of busy time.
func (r *result) setRate(name string, n int, busy time.Duration) {
	if busy > 0 {
		r.set(name, float64(n)/busy.Seconds(), "1/s")
	}
}

// finish fills the metrics every workload shares and decides correctness.
func (r *result) finish() {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		// Every workload runs in a process of its own, so this is the
		// workload's peak; Linux reports kilobytes.
		r.set("peak_rss_mb", float64(ru.Maxrss)/1024, "MB")
	}
	if r.Attempted > 0 {
		r.set("error_frac", float64(r.Failed)/float64(r.Attempted), "ratio")
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// contractSpecs is the output contract's metric list: the end-to-end
// metrics without tracing, the per-layer ones with it.
func (r *result) contractSpecs() []spec {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// contract returns the metrics of the output contract.
func (r *result) contract() map[string]metric {
	out := make(map[string]metric)
	for _, s := range r.contractSpecs() {
		if m, ok := r.Metrics[s.name]; ok {
			out[s.name] = m
		}
	}
	return out
}

// missing lists the contract metrics the run did not produce, or produced
// in another unit.
func (r *result) missing() []string {
	var out []string
	for _, s := range r.contractSpecs() {
		if m, ok := r.Metrics[s.name]; !ok || m.Unit != s.unit {
			out = append(out, s.name)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// quantile interpolates the q-quantile of sorted values linearly between
// closest ranks; it is 0 for no values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median of unsorted values (the input is not modified).
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func medianDur(ds []time.Duration) time.Duration {
	return time.Duration(median(durFloats(ds)))
}

func durFloats(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// geomean of one or more positive values.
func geomean(vs []float64) float64 {
	var logs float64
	for _, v := range vs {
		logs += math.Log(v)
	}
	return math.Exp(logs / float64(len(vs)))
}
