// Package cliutil holds the flag handling shared by the repo's commands
// (mcc, ipra-bench, ipra-analyze, ipra-served, ipra-loadgen): pprof
// capture (-cpuprofile, -memprofile), and, on the tools that read them,
// verbose diagnostics (-v), the verifier (-verify), build telemetry
// (-trace, -report) and parallelism (-j). Each tool registers one Common
// on its flag set, calls Start after parsing, threads Context into the
// library, and calls Finish on the way out; the artifacts land wherever
// the flags pointed without any per-tool plumbing. It also reads the
// profile snapshots that mvm -profile writes and ipra-analyze and mcc read.
package cliutil

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ipra"
	"ipra/internal/parv"
	"ipra/internal/profagg"
	"ipra/internal/telemetry"
)

// Common is the shared flag block of one command invocation.
type Common struct {
	// Jobs is the -j value (FlagJobs): 0 = one worker per CPU, 1 =
	// sequential.
	Jobs int
	// Verbose is the -v value (FlagVerbose); each tool decides what extra
	// output it unlocks (cache statistics, analysis reports, ...).
	Verbose bool
	// Verify is the -verify value (FlagVerify): check the program
	// analyzer's output with internal/verify and fail on violations.
	Verify bool

	tool       string
	cpuProf    string
	memProf    string
	tracePath  string
	reportPath string

	tracer  *telemetry.Tracer
	cpuFile *os.File
}

// Flags names the shared flags a tool reads, beyond the pprof flags that
// every tool honours.
type Flags uint8

const (
	FlagVerbose   Flags = 1 << iota // -v
	FlagVerify                      // -verify
	FlagTelemetry                   // -trace and -report, for tools whose work records into the tracer
	FlagJobs                        // -j, for tools that fan work across a worker pool
)

// New returns a Common labelled with the tool name (used in error
// messages).
func New(tool string) *Common { return &Common{tool: tool} }

// Register installs the pprof flags and each shared flag of want on fs.
func (c *Common) Register(fs *flag.FlagSet, want Flags) {
	fs.StringVar(&c.cpuProf, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&c.memProf, "memprofile", "", "write a heap profile at exit to this file")
	if want&FlagVerbose != 0 {
		fs.BoolVar(&c.Verbose, "v", false, "verbose diagnostic output")
	}
	if want&FlagVerify != 0 {
		fs.BoolVar(&c.Verify, "verify", false, "check the analyzer's output against the paper's allocation invariants")
	}
	if want&FlagTelemetry != 0 {
		fs.StringVar(&c.tracePath, "trace", "", "write a Chrome trace-event JSON build trace to this file (chrome://tracing, Perfetto)")
		fs.StringVar(&c.reportPath, "report", "", "write a machine-readable JSON build report to this file")
	}
	if want&FlagJobs != 0 {
		fs.IntVar(&c.Jobs, "j", 0, "parallel jobs (0 = one per CPU, 1 = sequential)")
	}
}

// Start begins whatever the parsed flags requested up front: the CPU
// profile, and the telemetry tracer when -trace or -report was given.
// Pair it with Finish.
func (c *Common) Start() error {
	if c.tracePath != "" || c.reportPath != "" {
		c.tracer = telemetry.New()
	}
	if c.cpuProf != "" {
		f, err := os.Create(c.cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		c.cpuFile = f
	}
	return nil
}

// Tracer returns the run's tracer, nil unless -trace or -report was
// given.
func (c *Common) Tracer() *telemetry.Tracer { return c.tracer }

// Context attaches the run's tracer (if any) to parent. Library calls
// made with the returned context record spans and counters; without
// -trace/-report it returns parent unchanged.
func (c *Common) Context(parent context.Context) context.Context {
	if c.tracer == nil {
		return parent
	}
	return telemetry.WithTracer(parent, c.tracer)
}

// Finish writes everything the parsed flags requested at exit: it stops
// the CPU profile, captures the heap profile, and exports the telemetry
// trace and report. Safe to call when none were requested.
func (c *Common) Finish() error {
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		c.cpuFile.Close()
		c.cpuFile = nil
	}
	if c.memProf != "" {
		runtime.GC()
		if err := WriteFile(c.memProf, pprof.WriteHeapProfile); err != nil {
			return err
		}
	}
	if c.tracePath != "" {
		if err := WriteFile(c.tracePath, c.tracer.WriteChromeTrace); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if c.reportPath != "" {
		if err := WriteFile(c.reportPath, c.tracer.Report().WriteJSON); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	return nil
}

// WriteFile streams one export function into a freshly created file.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// BuildFlags is the shared configuration flag block: configuration
// preset selection, allocation strategy, and, on the commands that link a
// whole program, the executable output path. Every command that names a
// configuration — mcc's incremental and remote modes, ipra-analyze,
// ipra-loadgen — registers this one block, so the preset table, defaults,
// and help text can never drift between tools (the preset list itself
// lives in the ipra registry; nothing here hand-maintains a copy).
type BuildFlags struct {
	// ConfigName is the -config value: L2 or Table 4 column A-F. Its
	// value at RegisterConfig is the flag's default; empty means C.
	ConfigName string
	// StrategyName is the -strategy value: an allocation strategy, or ""
	// for the preset's default (priority coloring).
	StrategyName string
	// ExePath is the -exe value; each tool defines its own default.
	ExePath string
}

// RegisterConfig installs -config and -strategy on fs.
func (b *BuildFlags) RegisterConfig(fs *flag.FlagSet) {
	fs.StringVar(&b.ConfigName, "config", cmp.Or(b.ConfigName, "C"), "build configuration: L2 or Table 4 column A-F ("+strings.Join(ipra.PresetNames(), ", ")+")")
	fs.StringVar(&b.StrategyName, "strategy", "", "allocation strategy ("+strings.Join(ipra.StrategyNames(), ", ")+"; default "+ipra.DefaultStrategy+")")
}

// RegisterBuild installs the configuration flags and -exe on fs.
func (b *BuildFlags) RegisterBuild(fs *flag.FlagSet) {
	b.RegisterConfig(fs)
	fs.StringVar(&b.ExePath, "exe", "", "executable output path")
}

// Config resolves the -config preset from the ipra registry and applies
// the -strategy selection (validated eagerly, so a typo fails at flag
// handling rather than mid-build).
func (b *BuildFlags) Config() (ipra.Config, error) {
	cfg, err := ipra.PresetByName(b.ConfigName)
	if err != nil {
		return ipra.Config{}, err
	}
	if b.StrategyName != "" {
		canon, err := ipra.ResolveStrategy(b.StrategyName)
		if err != nil {
			return ipra.Config{}, err
		}
		cfg = cfg.WithStrategy(canon)
	}
	return cfg, nil
}

// ReadSnapshot reads a profile file — a profagg snapshot, as mvm -profile
// writes for one run and ipra-served serves for a fleet aggregate — and
// returns its per-run mean counts. A snapshot stamped by another toolchain
// is an error, since its counts were measured on binaries this one would
// not build.
func ReadSnapshot(path string) (*parv.Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	agg, err := profagg.DecodeAggregate(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if fp := ipra.ToolchainFingerprint(); agg.Fingerprint != fp {
		return nil, fmt.Errorf("%s: profile from toolchain %s, this one is %s", path, agg.Fingerprint, fp)
	}
	return agg.MeanProfile(), nil
}

// CacheStats prints the process-wide phase-1 cache counters to w, the
// shared -v footer of the compile-driving tools.
func (c *Common) CacheStats(w io.Writer) {
	s := ipra.Phase1CacheStats()
	fmt.Fprintf(w, "%s: phase-1 cache: %d hits, %d misses, %d evictions, %d entries\n",
		c.tool, s.Hits, s.Misses, s.Evictions, s.Entries)
}

// Fatal prints the error prefixed with the tool name and exits 1.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}

// Fatal prints the error prefixed with this Common's tool name and
// exits 1.
func (c *Common) Fatal(err error) { Fatal(c.tool, err) }
