package served

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestServedDrainFailFast: a draining daemon answers 503 like a
// saturated one, but retrying it is pointless — the client must
// recognize Reason "draining" and fail after exactly one round trip
// instead of burning its whole retry budget (with backoff sleeps)
// against a daemon that is already gone.
func TestServedDrainFailFast(t *testing.T) {
	srv := New(Options{Jobs: 1})
	srv.draining.Store(true)

	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/build" {
			hits.Add(1)
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	client, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	client.Retries = 5

	_, err = client.Build(context.Background(), &BuildRequest{Config: "A", Sources: testSources(t)})
	if err == nil {
		t.Fatal("build against a draining daemon succeeded")
	}
	se, ok := err.(*StatusError)
	if !ok {
		t.Fatalf("error type %T, want *StatusError", err)
	}
	if se.Code != http.StatusServiceUnavailable || !se.Draining() || se.Saturated() {
		t.Fatalf("got code=%d reason=%q Draining=%t Saturated=%t, want 503/draining/true/false",
			se.Code, se.Reason, se.Draining(), se.Saturated())
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("client made %d round trips against a draining daemon, want 1", n)
	}
}

// TestServedErrorStatusClasses: each failure class gets its own status —
// 400 for request defects, 422 for compile errors in a well-formed
// request, 500 for daemon-side faults — instead of a blanket 422.
func TestServedErrorStatusClasses(t *testing.T) {
	srcs := testSources(t)

	expectStatus := func(t *testing.T, srv *Server, req *BuildRequest, code int, reason string) {
		t.Helper()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client, err := Dial(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		_, err = client.Build(context.Background(), req)
		se, ok := err.(*StatusError)
		if !ok {
			t.Fatalf("error %v (%T), want *StatusError", err, err)
		}
		if se.Code != code || se.Reason != reason {
			t.Fatalf("got %d/%q (%s), want %d/%q", se.Code, se.Reason, se.Message, code, reason)
		}
	}

	t.Run("validation", func(t *testing.T) {
		expectStatus(t, New(Options{Jobs: 1}), &BuildRequest{Sources: srcs},
			http.StatusBadRequest, ReasonBadRequest)
	})
	t.Run("unknown config", func(t *testing.T) {
		expectStatus(t, New(Options{Jobs: 1}), &BuildRequest{Config: "ZZ", Sources: srcs},
			http.StatusBadRequest, ReasonBadRequest)
	})
	t.Run("unknown strategy", func(t *testing.T) {
		// A removed strategy is a request defect like any unknown name.
		for _, strat := range []string{"no-such-strategy", "spill-everywhere"} {
			expectStatus(t, New(Options{Jobs: 1}),
				&BuildRequest{Config: "A", Strategy: strat, Sources: srcs},
				http.StatusBadRequest, ReasonBadRequest)
		}
	})
	t.Run("compile error", func(t *testing.T) {
		// A failed build leaves the request table, so the same request
		// sent again builds again rather than taking the stored error.
		srv := New(Options{Jobs: 1})
		bad := &BuildRequest{Config: "A", Sources: []Source{{Name: "bad.mc", Text: "int main( {"}}}
		for i := 0; i < 2; i++ {
			expectStatus(t, srv, bad, http.StatusUnprocessableEntity, ReasonCompile)
		}
		c := srv.Counters()
		if c["served.builds"] != 2 || c["served.result_hits"] != 0 || c["served.dedup_hits"] != 0 {
			t.Errorf("two sends of a failing request: %d builds, %d result hits, %d dedup hits; want 2/0/0",
				c["served.builds"], c["served.result_hits"], c["served.dedup_hits"])
		}
	})
	t.Run("internal error", func(t *testing.T) {
		// A StateDir that is a regular file makes the incremental store's
		// directory creation fail — an environment fault, not the
		// program's, so it must surface as 500.
		file := filepath.Join(t.TempDir(), "not-a-dir")
		if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		expectStatus(t, New(Options{Jobs: 1, StateDir: file}),
			&BuildRequest{Config: "A", Sources: srcs},
			http.StatusInternalServerError, ReasonInternal)
	})
}

// TestServedDirLockPruned: the per-build-dir lock map must not grow by
// one entry per program ever served; entries are refcounted and pruned
// when the last build of the directory releases them.
func TestServedDirLockPruned(t *testing.T) {
	srv := New(Options{Jobs: 1, StateDir: t.TempDir(), ResultCacheEntries: 4})
	for i := 0; i < 8; i++ {
		src := Source{
			Name: fmt.Sprintf("m%d.mc", i),
			Text: fmt.Sprintf("int main() { return %d; }", i),
		}
		if _, err := srv.Build(context.Background(), &BuildRequest{Config: "L2", Sources: []Source{src}}); err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
	}
	if n := srv.dirLocks(); n != 0 {
		t.Fatalf("dirLock holds %d entries after all builds finished, want 0", n)
	}
}

// TestServedDirLockHeldDuringBuild: pruning must not drop a lock another
// build is still waiting on — two concurrent builds of one program still
// serialize, and the entry disappears only after both finish.
func TestServedDirLockHeldDuringBuild(t *testing.T) {
	srv := New(Options{Jobs: 1, StateDir: t.TempDir(), Concurrency: 2})
	started := make(chan struct{})
	release := make(chan struct{})
	inner := srv.buildFn
	srv.buildFn = func(ctx context.Context, j *job) (*BuildResponse, error) {
		started <- struct{}{}
		<-release
		return inner(ctx, j)
	}

	srcA := Source{Name: "m.mc", Text: "int main() { return 1; }"}
	srcB := Source{Name: "m.mc", Text: "int main() { return 2; }"}
	errs := make(chan error, 2)
	go func() {
		_, err := srv.Build(context.Background(), &BuildRequest{Config: "L2", Sources: []Source{srcA}})
		errs <- err
	}()
	go func() {
		_, err := srv.Build(context.Background(), &BuildRequest{Config: "L2", Sources: []Source{srcB}})
		errs <- err
	}()
	<-started
	<-started
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent build: %v", err)
		}
	}
	waitFor(t, func() bool { return srv.dirLocks() == 0 })
}

// TestClientWaitReadyHonorsContext: a deadline already on the context
// must bound the wait even when the explicit timeout is much longer; the
// old implementation polled for the full timeout regardless.
func TestClientWaitReadyHonorsContext(t *testing.T) {
	client, err := Dial("127.0.0.1:1") // nothing listens here
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = client.WaitReady(ctx, 10*time.Second)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("WaitReady succeeded against a dead address")
	}
	if elapsed > 3*time.Second {
		t.Fatalf("WaitReady ran %v; the context deadline of 150ms was ignored", elapsed)
	}
	if !strings.Contains(err.Error(), "not ready") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestServedResultCacheBound: the request table holds at most
// ResultCacheEntries builds and evicts the least recently used one. With
// room for two of three programs, the first one built is the one
// rebuilt.
func TestServedResultCacheBound(t *testing.T) {
	request := func(i int) *BuildRequest {
		src := Source{Name: "m.mc", Text: fmt.Sprintf("int main() { return %d; }", i)}
		return &BuildRequest{Config: "L2", Sources: []Source{src}}
	}
	send := func(srv *Server, i int) (built, hit bool) {
		t.Helper()
		before := srv.Counters()
		resp, err := srv.Build(context.Background(), request(i))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		after := srv.Counters()
		built = after["served.builds"] == before["served.builds"]+1
		hit = after["served.result_hits"] == before["served.result_hits"]+1
		if hit != resp.ResultCached {
			t.Errorf("request %d: result_hits moved %v, ResultCached %v", i, hit, resp.ResultCached)
		}
		return built, hit
	}

	srv := New(Options{Jobs: 1, ResultCacheEntries: 2})
	for i := 0; i < 3; i++ {
		if built, _ := send(srv, i); !built {
			t.Fatalf("first request %d did not build", i)
		}
	}
	for _, i := range []int{1, 2} {
		if built, hit := send(srv, i); built || !hit {
			t.Errorf("request %d sent again: built %v, result hit %v; want a hit", i, built, hit)
		}
	}
	if built, hit := send(srv, 0); !built || hit {
		t.Errorf("evicted request 0 sent again: built %v, result hit %v; want a rebuild", built, hit)
	}
}

// TestServedTraceIsPartOfTheKey: a request that asks for its trace and
// one that does not never share a response. Each order of the two
// builds twice and returns a trace exactly when one was asked for.
func TestServedTraceIsPartOfTheKey(t *testing.T) {
	srcs := testSources(t)
	for _, first := range []bool{false, true} {
		srv := New(Options{Jobs: 1})
		for _, traced := range []bool{first, !first} {
			resp, err := srv.Build(context.Background(), &BuildRequest{Config: "C", Sources: srcs, Trace: traced})
			if err != nil {
				t.Fatal(err)
			}
			if resp.ResultCached || resp.Dedup {
				t.Errorf("trace %v after trace %v: served from the other request's build", traced, first)
			}
			if got := len(resp.Trace) > 0; got != traced {
				t.Errorf("trace %v after trace %v: response carries a trace: %v", traced, first, got)
			}
		}
		if n := srv.Counters()["served.builds"]; n != 2 {
			t.Errorf("trace %v first: served.builds = %d, want 2", first, n)
		}
	}
}
