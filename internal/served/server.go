// Package served is the compilation-as-a-service daemon behind
// cmd/ipra-served: a long-lived server that keeps compiled artifacts hot
// across builds and serves concurrent build requests from many clients.
//
// What stays hot between requests:
//
//   - the process-wide phase-1/summary cache (internal/cache), so a
//     module parsed for one client is never re-parsed for another; a
//     build directory stores the very bytes the cache holds;
//   - one persistent incremental build directory per (config, strategy,
//     module name-set) program identity (internal/incremental), so an
//     edited program recompiles only what its edit reaches; the program
//     analyzer re-runs whole on every build;
//   - one bounded in-memory request table (an internal/lru map) from
//     request keys to builds, running or finished, so an identical
//     request never compiles again: it shares the running build
//     (served.dedup_hits) or takes the finished response
//     (served.result_hits).
//
// Every cache layer is keyed or guarded by the toolchain fingerprint: the
// request key embeds it directly, and the incremental store rejects
// on-disk state stamped by any other fingerprint, so a daemon can never
// serve bytes a local build of the same toolchain would not produce.
//
// Concurrency control is two-level. Identical requests collapse into one
// build through the request table; only the first arrival under a key
// builds. Distinct requests pass a bounded admission queue: at most
// Concurrency builds run, at most QueueDepth more wait, and anything
// beyond that is rejected immediately with 503 and a Retry-After hint
// rather than queued without bound.
package served

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ipra"
	"ipra/internal/lru"
	"ipra/internal/parv"
	"ipra/internal/pipeline"
	"ipra/internal/profagg"
	"ipra/internal/telemetry"
)

// Options configure a Server.
type Options struct {
	// StateDir is the root under which per-program incremental build
	// directories live; empty serves every build statelessly from
	// memory (still through the request table).
	StateDir string
	// Concurrency bounds simultaneously executing builds; 0 means one
	// per CPU.
	Concurrency int
	// QueueDepth bounds admitted-but-waiting requests; 0 means
	// 4×Concurrency. Requests beyond Concurrency+QueueDepth are
	// rejected with ErrSaturated / HTTP 503.
	QueueDepth int
	// Jobs is the per-build compiler parallelism (ipra.Config.Jobs).
	Jobs int
	// ResultCacheEntries bounds the request table, running builds and
	// finished responses together; 0 or less means 128.
	ResultCacheEntries int
	// ProfilePrograms bounds the profile-aggregation store's in-memory
	// per-program states (internal/profagg); 0 means 128.
	ProfilePrograms int
	// Tracer receives server-lifetime telemetry (the served.* counters
	// plus every request's counters merged in); nil allocates one
	// internally so Stats always works.
	Tracer *telemetry.Tracer
	// Log receives one line per request; nil discards.
	Log io.Writer
}

// ErrSaturated is returned (as HTTP 503 + Retry-After on the wire) when
// the admission queue is full. Retrying after the hint is the right
// response.
var ErrSaturated = errors.New("served: admission queue full")

// ErrDraining is returned (HTTP 503, Reason "draining", no Retry-After)
// once Shutdown has begun. Unlike saturation this is not transient from
// the requester's point of view — clients should fail over, not retry.
var ErrDraining = errors.New("served: server is draining")

// RequestError marks a fault in the request itself — missing fields,
// unknown config or strategy — mapped to HTTP 400, as opposed to a
// compile failure in a well-formed request (422).
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// entry is one request key's build in the request table. Its builder
// sets resp or err and finished under Server.mu, then closes done.
type entry struct {
	done     chan struct{}
	finished bool
	resp     *BuildResponse
	err      error
	// model is the drift model the build registered (profiled
	// configurations only); a result-cache hit restores it.
	model *profagg.DriftModel
}

// Server is one daemon instance. Create with New, expose with Handler or
// Serve, stop with Shutdown.
type Server struct {
	opts        Options
	fingerprint string
	tracer      *telemetry.Tracer
	start       time.Time

	admission chan struct{} // capacity Concurrency+QueueDepth
	running   chan struct{} // capacity Concurrency

	queueDepth atomic.Int64 // admitted, waiting for a run slot
	runDepth   atomic.Int64 // builds executing
	inflightN  atomic.Int64 // requests inside the server
	nextID     atomic.Uint64
	draining   atomic.Bool

	mu      sync.Mutex
	dirLock map[string]*dirMutex // per-build-dir serialization, refcounted
	// builds is the request table: every request key's running or
	// finished build. A failed build leaves it.
	builds *lru.Cache[string, *entry]

	profiles *profagg.Store

	// buildFn runs one deduplicated build; tests wrap it to hold builds
	// open and provoke dedup/saturation deterministically.
	buildFn func(ctx context.Context, j *job) (*BuildResponse, error)

	httpMu  sync.Mutex
	httpSrv *http.Server
}

// New returns a ready Server; no listener is opened until Serve.
func New(opts Options) *Server {
	if opts.Concurrency <= 0 {
		opts.Concurrency = pipeline.Workers(0)
	}
	if opts.QueueDepth == 0 {
		opts.QueueDepth = 4 * opts.Concurrency
	}
	if opts.QueueDepth < 0 {
		opts.QueueDepth = 0
	}
	if opts.ResultCacheEntries <= 0 {
		opts.ResultCacheEntries = 128
	}
	fp := ipra.ToolchainFingerprint()
	tr := opts.Tracer
	if tr == nil {
		tr = telemetry.New()
	}
	s := &Server{
		opts:        opts,
		fingerprint: fp,
		tracer:      tr,
		start:       time.Now(),
		admission:   make(chan struct{}, opts.Concurrency+opts.QueueDepth),
		running:     make(chan struct{}, opts.Concurrency),
		dirLock:     make(map[string]*dirMutex),
		builds:      lru.New[string, *entry](opts.ResultCacheEntries),
	}
	var dir func(string) string
	if opts.StateDir != "" {
		stateDir := opts.StateDir
		dir = func(program string) string { return filepath.Join(stateDir, program) }
	}
	s.profiles = profagg.New(profagg.Options{
		Fingerprint: fp,
		Dir:         dir,
		MaxPrograms: opts.ProfilePrograms,
		Tracer:      tr,
	})
	s.buildFn = s.runBuild
	return s
}

// Fingerprint returns the toolchain fingerprint guarding this daemon's
// state.
func (s *Server) Fingerprint() string { return s.fingerprint }

// Counters snapshots the server-lifetime telemetry totals.
func (s *Server) Counters() map[string]int64 { return s.tracer.Counters() }

// Stats assembles the /v1/stats payload.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Fingerprint: s.fingerprint,
		Counters:    s.tracer.Counters(),
		Gauges: map[string]int64{
			"served.queue_depth": s.queueDepth.Load(),
			"served.running":     s.runDepth.Load(),
			"served.inflight":    s.inflightN.Load(),
		},
		UptimeSec: time.Since(s.start).Seconds(),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Log != nil {
		fmt.Fprintf(s.opts.Log, "ipra-served: "+format+"\n", args...)
	}
}

// job is one request resolved for building, once, by Build: the preset
// under the request's strategy with the server's Jobs, the program key
// (build directory and profile-store key), the request-table key, the
// mean profile of the program's active aggregate (nil while it serves
// from its training run), and when Build began, which ElapsedMS counts
// from. A profiled build sets model to the drift model it registered.
type job struct {
	req     *BuildRequest
	cfg     ipra.Config
	program string
	key     string
	agg     *parv.Profile
	began   time.Time
	model   *profagg.DriftModel
}

// Build serves one request through the full admission path — request
// table, bounded queue — exactly as the HTTP handler does; it is the
// in-process entry point tests and embedders use. It never writes req, so
// callers may reuse and share requests.
func (s *Server) Build(ctx context.Context, req *BuildRequest) (*BuildResponse, error) {
	began := time.Now()
	j, err := s.resolve(req)
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	j.began = began
	if s.draining.Load() {
		return nil, ErrDraining
	}
	s.inflightN.Add(1)
	defer s.inflightN.Add(-1)
	s.tracer.Add("served.requests", 1)

	// The first arrival under a key stores its entry and builds; a later
	// one shares that build, running or finished, and takes no admission
	// slot.
	s.mu.Lock()
	e, found := s.builds.Get(j.key)
	running := found && !e.finished
	if !found {
		e = &entry{done: make(chan struct{})}
		s.builds.Put(j.key, e)
	}
	s.mu.Unlock()
	if !found {
		resp, err := s.admitAndBuild(ctx, j)
		s.mu.Lock()
		e.resp, e.err, e.model, e.finished = resp, err, j.model, true
		if err != nil {
			// An error is never served from the table: the entry leaves
			// it before its waiters wake, unless eviction replaced it.
			if cur, ok := s.builds.Get(j.key); ok && cur == e {
				s.builds.Remove(j.key)
			}
		}
		s.mu.Unlock()
		close(e.done)
		return resp, err
	}

	how := "result cache hit"
	if running {
		s.tracer.Add("served.dedup_hits", 1)
		how = "deduplicated against in-flight build"
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err != nil {
			return nil, e.err
		}
	} else {
		s.tracer.Add("served.result_hits", 1)
		// The profile store's bounded table may have evicted the
		// model since the build registered it; without it the
		// program's fleet posts would be refused as unknown.
		if e.model != nil {
			s.profiles.Restore(j.program, e.model, req.clone())
		}
	}
	out := *e.resp
	out.RequestID = s.nextID.Add(1)
	out.Dedup, out.ResultCached = running, !running
	if !running {
		out.Incremental = nil
		out.ElapsedMS = float64(time.Since(began).Microseconds()) / 1000
	}
	s.logf("req %d: %s %d modules: %s", out.RequestID, req.Config, len(req.Sources), how)
	return &out, nil
}

// resolve validates req and fixes its job. Once a drift-triggered
// re-analysis commits the program to its fleet aggregate, every build
// uses the aggregate's mean profile, and the mean's digest extends the
// key: results built under different means never alias, and aggregates
// with one mean, the only part of them a build reads, share results. Only a
// profiled configuration's program can have an aggregate (the program key
// names the configuration), so no other build touches the store.
func (s *Server) resolve(req *BuildRequest) (*job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	cfg, err := ipra.PresetByName(req.Config)
	if err != nil {
		return nil, err
	}
	strat, err := ipra.ResolveStrategy(req.Strategy)
	if err != nil {
		return nil, err
	}
	cfg = cfg.WithStrategy(strat)
	cfg.Jobs = s.opts.Jobs
	j := &job{req: req, cfg: cfg, program: req.ProgramKey(), key: req.Key(s.fingerprint)}
	if cfg.WantProfile {
		if hash, prof, ok := s.profiles.ActiveAggregate(j.program); ok {
			j.key += "|agg:" + hash
			j.agg = prof
		}
	}
	return j, nil
}

// admitAndBuild pushes one leader request through the bounded queue and
// runs its build.
func (s *Server) admitAndBuild(ctx context.Context, j *job) (*BuildResponse, error) {
	select {
	case s.admission <- struct{}{}:
	default:
		s.tracer.Add("served.rejected", 1)
		return nil, ErrSaturated
	}
	defer func() { <-s.admission }()

	s.queueDepth.Add(1)
	select {
	case s.running <- struct{}{}:
	case <-ctx.Done():
		s.queueDepth.Add(-1)
		return nil, ctx.Err()
	}
	s.queueDepth.Add(-1)
	s.runDepth.Add(1)
	defer func() {
		s.runDepth.Add(-1)
		<-s.running
	}()

	s.tracer.Add("served.builds", 1)
	resp, err := s.buildFn(ctx, j)
	if err != nil {
		s.tracer.Add("served.errors", 1)
	}
	return resp, err
}

// runBuild executes one underlying ipra.Build with per-request telemetry.
// ipra.Build decides where a profiled build's counts come from: the
// program's aggregate when the job has one, or else a training run.
func (s *Server) runBuild(ctx context.Context, j *job) (*BuildResponse, error) {
	id := s.nextID.Add(1)
	req, cfg := j.req, j.cfg

	sources := make([]ipra.Source, len(req.Sources))
	for i, src := range req.Sources {
		sources[i] = ipra.Source{Name: src.Name, Text: []byte(src.Text)}
	}

	reqTracer := telemetry.New()
	opts := []ipra.BuildOption{ipra.WithTelemetry(reqTracer)}
	if j.agg != nil {
		opts = append(opts, ipra.WithAggregatedProfile(j.agg))
	}
	if req.Verify {
		opts = append(opts, ipra.WithVerify())
	}

	var buildDir string
	if s.opts.StateDir != "" {
		buildDir = filepath.Join(s.opts.StateDir, j.program)
		opts = append(opts, ipra.WithBuildDir(buildDir))
		// Two different source versions of the same program share a
		// build directory; serialize them so concurrent edits never
		// interleave manifest writes.
		lock := s.lockDir(buildDir)
		defer s.unlockDir(buildDir, lock)
	}

	res, err := ipra.Build(ctx, sources, cfg, opts...)
	mergeCounters(s.tracer, reqTracer)
	if err != nil {
		s.logf("req %d: %s %d modules: error: %v", id, req.Config, len(sources), err)
		return nil, err
	}

	var exeBuf bytes.Buffer
	if err := parv.EncodeExecutable(&exeBuf, res.Exe); err != nil {
		return nil, err
	}

	resp := &BuildResponse{
		RequestID:    id,
		Config:       cfg.Name,
		Exe:          exeBuf.Bytes(),
		Instructions: len(res.Exe.Code),
		ElapsedMS:    float64(time.Since(j.began).Microseconds()) / 1000,
	}
	if res.Program.DB != nil {
		resp.DirectiveHash = res.Program.DB.Hash()
	}
	// The fleet's counts are checked against this build's allocation,
	// under the options of the analysis that produced it, profile
	// included; the request copy is what a detected drift replays.
	prof := j.agg
	if res.Train != nil {
		prof = res.Train.Profile
	}
	if prof != nil {
		j.model = profagg.NewDriftModel(res.Summaries, cfg.AnalyzerOptions(prof), resp.DirectiveHash)
		s.profiles.Register(j.program, j.model, req.clone())
	}
	if out := res.Incremental; out != nil {
		resp.Incremental = &IncrementalSummary{
			StateReset:     out.StateReset,
			Phase1Rebuilds: out.Phase1Rebuilds,
			Phase2Rebuilds: out.Phase2Rebuilds,
		}
	}
	if req.Trace {
		var buf bytes.Buffer
		if err := reqTracer.WriteChromeTrace(&buf); err == nil {
			resp.Trace = json.RawMessage(buf.Bytes())
		}
	}
	s.logf("req %d: %s %d modules: built in %.1fms (dir %q)", id, req.Config, len(sources), resp.ElapsedMS, buildDir)
	return resp, nil
}

// dirMutex is one build directory's lock plus the number of holders and
// waiters keeping it alive. The refcount lets unlockDir prune the entry
// the moment the last interested build releases it, so the dirLock map
// tracks only directories with active builds instead of growing by one
// entry per program ever served (the request table is bounded; this map
// must be too).
type dirMutex struct {
	mu   sync.Mutex
	refs int
}

// lockDir acquires the named directory's lock, creating it on demand.
func (s *Server) lockDir(dir string) *dirMutex {
	s.mu.Lock()
	l, ok := s.dirLock[dir]
	if !ok {
		l = &dirMutex{}
		s.dirLock[dir] = l
	}
	l.refs++
	s.mu.Unlock()
	l.mu.Lock()
	return l
}

// unlockDir releases the directory's lock and drops the map entry once no
// build holds or waits on it.
func (s *Server) unlockDir(dir string, l *dirMutex) {
	l.mu.Unlock()
	s.mu.Lock()
	l.refs--
	if l.refs == 0 {
		delete(s.dirLock, dir)
	}
	s.mu.Unlock()
}

// dirLocks reports the live lock-map size (tests).
func (s *Server) dirLocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dirLock)
}

// IngestProfile merges one posted aggregate — a fleet generation's
// counts — and, when analyzing under the program's merged aggregate would
// change its directives, replays the program's build request against the
// aggregate — the in-process form of POST /v1/profile. A post whose
// program is not a program key is an error: the key names the directory
// its aggregate is written to.
func (s *Server) IngestProfile(ctx context.Context, posted *profagg.Aggregate) (*ProfileIngestResponse, error) {
	if posted == nil || !validProgramKey(posted.Program) {
		return nil, fmt.Errorf("served: profile does not name a program key")
	}
	res, err := s.profiles.Ingest(posted)
	if err != nil {
		return nil, err
	}
	out := &ProfileIngestResponse{
		Accepted:   res.Accepted,
		Reason:     res.Reason,
		Runs:       res.Runs,
		Records:    res.Records,
		ModelReady: res.ModelReady,
		Drifted:    res.Drifted,
	}
	if !res.Drifted {
		return out, nil
	}
	meta, ok := s.profiles.BeginRetrain(posted.Program)
	if !ok {
		return out, nil
	}
	req, ok := meta.(*BuildRequest)
	if !ok {
		s.profiles.AbortRetrain(posted.Program)
		return out, nil
	}
	began := time.Now()
	resp, err := s.Build(ctx, req)
	if err != nil {
		s.profiles.AbortRetrain(posted.Program)
		s.logf("profagg: %s: re-analysis failed: %v", posted.Program, err)
		return out, nil
	}
	s.tracer.Add("profagg.reanalyses", 1)
	s.tracer.Add("profagg.reanalysis_ms", time.Since(began).Milliseconds())
	out.Reanalyzed = true
	out.DirectiveHash = resp.DirectiveHash
	s.logf("profagg: %s: drift after %d runs, re-analyzed in %.0fms", posted.Program, res.Runs, resp.ElapsedMS)
	return out, nil
}

// mergeCounters folds one request tracer's counters into the server
// totals.
func mergeCounters(dst, src *telemetry.Tracer) {
	for name, v := range src.Counters() {
		dst.Add(name, v)
	}
}

// retryAfterSec estimates when a rejected client should come back: one
// second per queued-or-running build ahead of it, floored at 1.
func (s *Server) retryAfterSec() int {
	n := int(s.queueDepth.Load() + s.runDepth.Load())
	if n < 1 {
		n = 1
	}
	if n > 30 {
		n = 30
	}
	return n
}

// maxRequestBytes bounds one request body (sources are text; 256 MiB is
// far past any real program here).
const maxRequestBytes = 256 << 20

// maxPresize bounds the buffer a body's declared Content-Length reserves
// before its bytes arrive; a longer body grows the buffer as it is read.
const maxPresize = 1 << 20

// readBody reads r to EOF into one buffer sized from the body's declared
// length, so a body up to maxPresize bytes is read without regrowing, and
// a length a peer declares but never sends reserves at most maxPresize
// bytes.
func readBody(r io.Reader, declared int64) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, min(max(declared, 0), maxPresize)+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// Handler returns the server's HTTP interface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/build", s.handleBuild)
	mux.HandleFunc("/v1/profile", s.handleProfile)
	mux.HandleFunc("/v1/profile/snapshot", s.handleProfileSnapshot)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/health", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeWire sends a 200 reply whose body is one wire artifact.
func writeWire(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required", Reason: ReasonBadRequest})
		return
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxRequestBytes), r.ContentLength)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), Reason: ReasonBadRequest})
		return
	}
	req, err := decodeBuildRequest(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error(), Reason: ReasonBadRequest})
		return
	}
	resp, err := s.Build(r.Context(), req)
	if err != nil {
		s.writeBuildError(w, err)
		return
	}
	writeWire(w, resp.encode())
}

// writeBuildError maps a Build error onto the wire: each class gets its
// own status code and machine-readable reason so clients can distinguish
// "retry later" (saturated) from "give up" (draining), and their own
// mistakes (400) from a broken program (422) or a broken daemon (500).
func (s *Server) writeBuildError(w http.ResponseWriter, err error) {
	var reqErr *RequestError
	switch {
	case errors.Is(err, ErrSaturated):
		sec := s.retryAfterSec()
		w.Header().Set("Retry-After", strconv.Itoa(sec))
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: err.Error(), Reason: ReasonSaturated, RetryAfterSec: sec})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: err.Error(), Reason: ReasonDraining})
	case errors.As(err, &reqErr):
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: err.Error(), Reason: ReasonBadRequest})
	case isInternalError(err):
		writeJSON(w, http.StatusInternalServerError,
			errorResponse{Error: err.Error(), Reason: ReasonInternal})
	default:
		writeJSON(w, http.StatusUnprocessableEntity,
			errorResponse{Error: err.Error(), Reason: ReasonCompile})
	}
}

// isInternalError recognizes faults in the daemon's own environment —
// filesystem and OS errors out of the incremental store — as opposed to
// compile errors in the submitted program.
func isInternalError(err error) bool {
	var pathErr *os.PathError
	var linkErr *os.LinkError
	var sysErr *os.SyscallError
	return errors.As(err, &pathErr) || errors.As(err, &linkErr) || errors.As(err, &sysErr)
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required", Reason: ReasonBadRequest})
		return
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxRequestBytes), r.ContentLength)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), Reason: ReasonBadRequest})
		return
	}
	posted, err := profagg.DecodeAggregate(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), Reason: ReasonBadRequest})
		return
	}
	resp, err := s.IngestProfile(r.Context(), posted)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), Reason: ReasonBadRequest})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleProfileSnapshot(w http.ResponseWriter, r *http.Request) {
	program := r.URL.Query().Get("program")
	if !validProgramKey(program) {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "program query parameter must be a program key", Reason: ReasonBadRequest})
		return
	}
	data, ok := s.profiles.Snapshot(program)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no aggregate for program " + program, Reason: ReasonNotFound})
		return
	}
	writeWire(w, data)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining", Reason: ReasonDraining})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "fingerprint": s.fingerprint})
}

// Serve runs the HTTP interface on l until Shutdown; it returns nil on a
// graceful stop. One Serve per listener; multiple listeners (a Unix
// socket plus TCP) may be served concurrently.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	err := srv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the daemon gracefully: new requests are refused, every
// in-flight build runs to completion and its response is delivered, and
// only then do the listeners close. Incremental state is flushed by each
// build as it finishes, so a drained daemon leaves every build directory
// consistent. The context bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	} else {
		// In-process use (no listener): wait for inflight to reach zero.
		for s.inflightN.Load() > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	st := s.Stats()
	s.logf("drained: %d requests, %d builds, %d dedup hits, %d result hits, %d rejected",
		st.Counters["served.requests"], st.Counters["served.builds"],
		st.Counters["served.dedup_hits"], st.Counters["served.result_hits"],
		st.Counters["served.rejected"])
	return err
}

// ListenUnix removes a stale Unix socket file left by a previous daemon
// (after checking nothing is listening), then returns a fresh listener.
func ListenUnix(path string) (net.Listener, error) {
	if _, err := os.Stat(path); err == nil {
		if c, err := net.DialTimeout("unix", path, 250*time.Millisecond); err == nil {
			c.Close()
			return nil, fmt.Errorf("served: %s: a daemon is already listening", path)
		}
		os.Remove(path)
	}
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return net.Listen("unix", path)
}
