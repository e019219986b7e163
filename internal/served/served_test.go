package served

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"ipra"
	"ipra/internal/parv"
	"ipra/internal/progen"
)

// testProgram is a small but interprocedurally interesting synthesized
// program: multiple modules, shared globals, recursion.
var testProgram = progen.Config{
	Seed: 7, Modules: 4, ProcsPerModule: 6, Globals: 24,
	SubsystemSize: 4, Recursion: true, Statics: true, LoopIters: 1,
}

func testSources(t *testing.T) []Source {
	t.Helper()
	mods := progen.Generate(testProgram)
	out := make([]Source, len(mods))
	for i, m := range mods {
		out[i] = Source{Name: m.Name, Text: m.Text}
	}
	return out
}

// localExe builds the same request locally, as the daemon does, with no
// option, and returns the canonical executable bytes — the oracle every
// daemon response must match.
func localExe(t *testing.T, config string, srcs []Source) []byte {
	t.Helper()
	cfg, err := ipra.PresetByName(config)
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]ipra.Source, len(srcs))
	for i, s := range srcs {
		sources[i] = ipra.Source{Name: s.Name, Text: []byte(s.Text)}
	}
	res, err := ipra.Build(context.Background(), sources, cfg)
	if err != nil {
		t.Fatalf("local build (%s): %v", config, err)
	}
	var buf bytes.Buffer
	if err := parv.EncodeExecutable(&buf, res.Exe); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServedByteIdentity proves the acceptance criterion: a daemon-served
// build is byte-identical to a local ipra.Build for every configuration,
// over HTTP, with and without persistent state, and on the result-cache
// path.
func TestServedByteIdentity(t *testing.T) {
	srcs := testSources(t)
	srv := New(Options{StateDir: t.TempDir(), Jobs: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	for _, config := range ipra.PresetNames() {
		config := config
		t.Run(config, func(t *testing.T) {
			want := localExe(t, config, srcs)
			req := &BuildRequest{Config: config, Sources: srcs}
			resp, err := client.Build(context.Background(), req)
			if err != nil {
				t.Fatalf("remote build: %v", err)
			}
			if !bytes.Equal(resp.Exe, want) {
				t.Fatalf("daemon exe differs from local build (%d vs %d bytes)", len(resp.Exe), len(want))
			}
			if resp.Instructions == 0 || resp.Config != config {
				t.Fatalf("bad response metadata: %+v", resp)
			}

			// An identical re-request must come from the result cache,
			// still byte-identical.
			again, err := client.Build(context.Background(), req)
			if err != nil {
				t.Fatalf("repeat build: %v", err)
			}
			if !again.ResultCached {
				t.Errorf("repeat request not served from the result cache")
			}
			if !bytes.Equal(again.Exe, want) {
				t.Fatalf("result-cache exe differs from local build")
			}
		})
	}

	c := srv.Counters()
	if c["served.requests"] != 2*int64(len(ipra.PresetNames())) {
		t.Errorf("served.requests = %d, want %d", c["served.requests"], 2*len(ipra.PresetNames()))
	}
	if c["served.result_hits"] != int64(len(ipra.PresetNames())) {
		t.Errorf("served.result_hits = %d, want %d", c["served.result_hits"], len(ipra.PresetNames()))
	}
}

// TestServedStatelessMatchesStateful: a daemon without a state directory
// must produce the same bytes as one with it.
func TestServedStatelessMatchesStateful(t *testing.T) {
	srcs := testSources(t)
	req := &BuildRequest{Config: "C", Sources: srcs}
	stateless := New(Options{Jobs: 2})
	stateful := New(Options{StateDir: t.TempDir(), Jobs: 2})
	r1, err := stateless.Build(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := stateful.Build(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1.Exe, r2.Exe) {
		t.Fatal("stateless and stateful daemons produced different bytes")
	}
	if r1.Incremental != nil {
		t.Error("stateless build reported incremental state")
	}
	if r2.Incremental == nil {
		t.Error("stateful build reported no incremental state")
	}
}

// TestServedBuildLeavesRequestAlone: Build never writes the request it
// is given, so two goroutines may build one request at once (the race
// detector sees no write), and a strategy left empty reads back empty.
func TestServedBuildLeavesRequestAlone(t *testing.T) {
	srv := New(Options{Jobs: 1})
	req := &BuildRequest{Config: "C", Sources: testSources(t)}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = srv.Build(context.Background(), req)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if req.Strategy != "" {
		t.Errorf("Build rewrote the request's strategy to %q", req.Strategy)
	}
}

// TestServedUnixSocket exercises the real daemon transport: a Unix
// socket listener, health handshake, one build, graceful shutdown.
func TestServedUnixSocket(t *testing.T) {
	// Start from a cold phase-1 cache so the counter assertions below see
	// both sides deterministically: the first build must encode (Put), the
	// second must decode (hit), no matter which tests ran before.
	ipra.ResetPhase1Cache()
	dir, err := os.MkdirTemp("", "served")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "d.sock")

	srv := New(Options{Jobs: 2})
	l, err := ListenUnix(sock)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	client, err := Dial("unix:" + sock)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.WaitReady(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}

	srcs := testSources(t)
	resp, err := client.Build(context.Background(), &BuildRequest{Config: "A", Sources: srcs})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Exe, localExe(t, "A", srcs)) {
		t.Fatal("unix-socket build differs from local build")
	}

	// A second build under a different config hits the phase-1 cache, so
	// the stats totals below must show both sides of the serialization
	// cost: encode from the first build's stores, decode from this hit.
	if _, err := client.Build(context.Background(), &BuildRequest{Config: "B", Sources: srcs}); err != nil {
		t.Fatal(err)
	}

	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters["served.builds"] != 2 {
		t.Errorf("served.builds = %d, want 2", stats.Counters["served.builds"])
	}
	if stats.Fingerprint != ipra.ToolchainFingerprint() {
		t.Errorf("stats fingerprint = %q", stats.Fingerprint)
	}
	// Request-scoped counters merge into the server totals, so /v1/stats
	// exposes the wire serialization cost of the builds it served.
	for _, c := range []string{"cache.encode_ns", "cache.encode_bytes", "cache.decode_ns", "cache.decode_bytes"} {
		if stats.Counters[c] <= 0 {
			t.Errorf("stats counter %s = %d, want > 0", c, stats.Counters[c])
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	if err := client.Health(context.Background()); err == nil {
		t.Error("health check succeeded after shutdown")
	}
}

// TestServedQueueSaturation: with one build slot and one queue slot,
// a third concurrent distinct request is rejected with ErrSaturated
// rather than queued without bound, and admitted work still completes.
func TestServedQueueSaturation(t *testing.T) {
	srv := New(Options{Concurrency: 1, QueueDepth: 1, Jobs: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	inner := srv.buildFn
	srv.buildFn = func(ctx context.Context, j *job) (*BuildResponse, error) {
		started <- struct{}{}
		<-release
		return inner(ctx, j)
	}

	srcs := testSources(t)
	distinct := func(i byte) []Source {
		out := append([]Source(nil), srcs...)
		out[0].Text += "\n// variant " + string('a'+i) + "\n"
		return out
	}

	type result struct {
		resp *BuildResponse
		err  error
	}
	results := make(chan result, 3)
	build := func(i byte) {
		resp, err := srv.Build(context.Background(), &BuildRequest{Config: "L2", Sources: distinct(i)})
		results <- result{resp, err}
	}
	go build(0)
	<-started // first request is running
	go build(1)
	// Second request occupies the queue slot; wait for it to be counted.
	waitFor(t, func() bool { return srv.queueDepth.Load() == 1 })

	// Third distinct request must be rejected immediately.
	_, err := srv.Build(context.Background(), &BuildRequest{Config: "L2", Sources: distinct(2)})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated request returned %v, want ErrSaturated", err)
	}
	if c := srv.Counters()["served.rejected"]; c != 1 {
		t.Errorf("served.rejected = %d, want 1", c)
	}

	close(release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("admitted request failed: %v", r.err)
		}
	}
	if c := srv.Counters()["served.builds"]; c != 2 {
		t.Errorf("served.builds = %d, want 2", c)
	}
}

// TestServedShutdownDrains: Shutdown waits for the in-flight build and
// its response is delivered; requests after drain are refused.
func TestServedShutdownDrains(t *testing.T) {
	srv := New(Options{Jobs: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	inner := srv.buildFn
	srv.buildFn = func(ctx context.Context, j *job) (*BuildResponse, error) {
		started <- struct{}{}
		<-release
		return inner(ctx, j)
	}

	srcs := testSources(t)
	var wg sync.WaitGroup
	wg.Add(1)
	var resp *BuildResponse
	var buildErr error
	go func() {
		defer wg.Done()
		resp, buildErr = srv.Build(context.Background(), &BuildRequest{Config: "L2", Sources: srcs})
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Drain must not finish while the build is held open.
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned %v before the in-flight build finished", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	wg.Wait()
	if buildErr != nil {
		t.Fatalf("in-flight build failed during drain: %v", buildErr)
	}
	if len(resp.Exe) == 0 {
		t.Fatal("in-flight build returned no executable")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if _, err := srv.Build(context.Background(), &BuildRequest{Config: "L2", Sources: srcs}); err == nil {
		t.Fatal("build accepted after shutdown")
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResultHitCopiesEachBodyOnce pins what a result-cache hit
// allocates, client and server together, over a real Unix socket: on the
// served benchmark's program (progen seed 500, 25 modules × 20
// procedures, 64 globals), less than three times its request body plus
// its reply body. Each side copies each body once — the client encodes
// the request and reads the reply, the server reads the request, decodes
// its sources and encodes the reply — so a copy that comes back, such as
// a re-encode to check a body canonical, fails it.
func TestResultHitCopiesEachBodyOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	dir, err := os.MkdirTemp("", "served")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	srv := New(Options{Jobs: 2})
	l, err := ListenUnix(filepath.Join(dir, "d.sock"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		srv.Shutdown(context.Background())
		<-done
	}()
	client, err := Dial("unix:" + filepath.Join(dir, "d.sock"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := client.WaitReady(ctx, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	mods := progen.Generate(progen.Config{Seed: 500, Modules: 25, ProcsPerModule: 20, Globals: 64,
		SubsystemSize: 6, Recursion: true, IndirectCalls: true, Statics: true, LoopIters: 2})
	req := &BuildRequest{Config: "C", Sources: make([]Source, len(mods))}
	for i, m := range mods {
		req.Sources[i] = Source{Name: m.Name, Text: m.Text}
	}
	var resp *BuildResponse
	hit := func() {
		if resp, err = client.Build(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	// The build, then hits enough to settle the connection's buffers.
	for i := 0; i < 5; i++ {
		hit()
	}
	const hits = 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		hit()
	}
	runtime.ReadMemStats(&after)
	if !resp.ResultCached {
		t.Fatal("a repeated request was not a result-cache hit")
	}
	bodies := len(req.encode()) + len(resp.encode())
	perHit := float64(after.TotalAlloc-before.TotalAlloc) / hits
	t.Logf("a hit allocates %.0f bytes, %.2f times its %d bytes of request and reply", perHit, perHit/float64(bodies), bodies)
	if perHit >= 3*float64(bodies) {
		t.Errorf("a hit allocates %.0f bytes, %.2f times its bodies; want under 3", perHit, perHit/float64(bodies))
	}
}
