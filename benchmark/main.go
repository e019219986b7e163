// Command benchmark measures the ipra toolchain end to end and layer by
// layer, on four workloads that stress different layers:
//
//	cold-build   clean in-memory builds of a generated program
//	edit-loop    warm incremental rebuilds after seeded source edits (§5)
//	paper-suite  the seven benchmark programs under L2 and configs A-F,
//	             each built and run on the simulator (Tables 4 and 5)
//	served       open-loop build requests to an in-process daemon
//
// One workload runs per process, so set-up time and peak memory are the
// workload's own:
//
//	benchmark -workload cold-build -seed 1 -seconds 20 -trace 0
//
// Without -workload every workload runs, each in a child process. The run
// prints one "workload metric value unit" line per metric, and, last, one
// JSON object with the correctness counts and the end-to-end metrics (or,
// with -trace 1, the per-layer ones). -o writes everything measured, with
// the environment, for -compare:
//
//	benchmark -compare A.json[,A2.json...] B.json[,B2.json...]
//
// run.sh builds the binary from source and forwards its arguments.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// defaultSeconds is the measured window per workload; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 25

// opts are the settings one workload runs under.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
	// jobs is the machine's CPU count, used for GOMAXPROCS, Config.Jobs,
	// the daemon's Concurrency and the number of client connections:
	// running out of time or connections shows as latency, not as more
	// threads.
	jobs int
	// work is a scratch directory for build directories and sockets.
	work string
	// toy shrinks every workload to a few operations on tiny programs, so
	// the package test can drive each one in seconds.
	toy bool
}

// workload is one set of inputs the benchmark runs; BENCHMARK.json and
// README.md say why each was chosen.
type workload struct {
	name string
	run  func(ctx context.Context, o opts, r *result) error
}

var workloads = []workload{
	{"cold-build", runColdBuild},
	{"edit-loop", runEditLoop},
	{"paper-suite", runPaperSuite},
	{"served", runServed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "seed for the edit draws (edit-loop, served), the request mix (served) and the cell order (paper-suite)")
	seconds := fs.Float64("seconds", defaultSeconds, "measured window per workload, in seconds")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics (a bare -trace means 1)")
	out := fs.String("o", "", "write every measured metric and the environment to this JSON file")
	compare := fs.Bool("compare", false, "compare two result sets, each a comma-separated list of -o files")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.json[,A2.json...] B.json[,B2.json...]")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}

	root := findRoot()
	jobs := runtime.NumCPU()
	runtime.GOMAXPROCS(jobs)
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, jobs: jobs}

	if *name == "" {
		return runAll(o, root, *out, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	work, err := scratchDir(root, "work-")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	o.work = work

	res, err := runWorkload(context.Background(), w, o)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	res.Env = currentEnv(root, o.seed)
	printResult(stdout, res)
	for _, e := range res.Errors {
		fmt.Fprintf(stderr, "benchmark: %s: %s\n", w.name, e)
	}
	if *out != "" {
		if err := writeRuns(*out, []*result{res}); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.contract()})
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload and checks that it produced every metric
// of the output contract.
func runWorkload(ctx context.Context, w workload, o opts) (*result, error) {
	r := newResult(w.name, o)
	if err := w.run(ctx, o, r); err != nil {
		return nil, err
	}
	r.finish()
	if miss := r.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("produced no %s", strings.Join(miss, ", "))
	}
	return r, nil
}

// runAll runs every workload in a child process of its own and collects
// their results.
func runAll(o opts, root, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	tmp, err := scratchDir(root, "all-")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	code := 0
	var runs []*result
	for _, w := range workloads {
		file := filepath.Join(tmp, w.name+".json")
		trace := "0"
		if o.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace, "-o", file)
		cmd.Dir = root
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
		rs, err := readRuns(file)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		runs = append(runs, rs...)
	}
	if out != "" {
		if err := writeRuns(out, runs); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

// printResult writes one "workload metric value unit" line per metric,
// sorted by name.
func printResult(w io.Writer, r *result) {
	for _, n := range sortedKeys(r.Metrics) {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, n := range sortedKeys(r.Samples) {
		fmt.Fprintf(w, "%s %s.samples %d count\n", r.Workload, n, r.Samples[n])
	}
	fmt.Fprintf(w, "%s attempted %d count\n%s failed %d count\n", r.Workload, r.Attempted, r.Workload, r.Failed)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// runsFile is the -o format: one result per workload run.
type runsFile struct {
	Runs []*result `json:"runs"`
}

func writeRuns(path string, runs []*result) error {
	data, err := json.MarshalIndent(runsFile{Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRuns(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}

// normalizeTrace lets a bare -trace mean -trace 1 while -trace 0 and
// -trace 1 keep working.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args)+1)
	for i, a := range args {
		out = append(out, a)
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 >= len(args) || strings.HasPrefix(args[i+1], "-") {
			out = append(out, "1")
		}
	}
	return out
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// findRoot returns the repository root: the working directory or its
// parent, whichever holds BENCHMARK.json (the working directory when
// neither does).
func findRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return wd
}

// env records where a run happened.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"goVersion"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit,omitempty"`
}

func currentEnv(root string, seed int64) env {
	return env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		Commit:     gitHead(root),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitHead resolves HEAD from the repository's .git directory without
// running git; it returns "" outside a git checkout.
func gitHead(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if data, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(data))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return ""
}

// scratchDir makes a fresh directory under .bench_build at the root, where
// everything a run writes stays.
func scratchDir(root, prefix string) (string, error) {
	dir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, prefix)
}
