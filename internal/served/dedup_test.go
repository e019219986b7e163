package served

import (
	"bytes"
	"context"
	"sync"
	"testing"
)

// TestServedDedup is the single-flight acceptance test: N concurrent
// identical requests produce exactly one underlying build — asserted via
// the served.builds and served.dedup_hits counters — and every client
// receives byte-identical executable payloads.
func TestServedDedup(t *testing.T) {
	const n = 8
	srv := New(Options{StateDir: t.TempDir(), Jobs: 2})

	// Hold the leader's build open until every follower has arrived and
	// registered as a dedup hit, so the overlap is deterministic rather
	// than racing against a fast compile.
	release := make(chan struct{})
	inner := srv.buildFn
	srv.buildFn = func(ctx context.Context, j *job) (*BuildResponse, error) {
		<-release
		return inner(ctx, j)
	}

	srcs := testSources(t)
	req := func() *BuildRequest { return &BuildRequest{Config: "C", Sources: srcs} }

	responses := make([]*BuildResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = srv.Build(context.Background(), req())
		}(i)
	}

	// All n-1 followers tick served.dedup_hits before blocking on the
	// leader; once the counter reads n-1 the overlap is established.
	waitFor(t, func() bool { return srv.Counters()["served.dedup_hits"] == n-1 })
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	c := srv.Counters()
	if c["served.builds"] != 1 {
		t.Fatalf("served.builds = %d, want exactly 1 underlying build for %d identical requests", c["served.builds"], n)
	}
	if c["served.dedup_hits"] != n-1 {
		t.Fatalf("served.dedup_hits = %d, want %d", c["served.dedup_hits"], n-1)
	}
	if c["served.requests"] != n {
		t.Fatalf("served.requests = %d, want %d", c["served.requests"], n)
	}

	var leaders int
	for i, resp := range responses {
		if !bytes.Equal(resp.Exe, responses[0].Exe) {
			t.Fatalf("response %d payload differs from response 0", i)
		}
		if !resp.Dedup {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d responses claim to be the leader, want 1", leaders)
	}

	// The shared payload must still be what a local build produces.
	if !bytes.Equal(responses[0].Exe, localExe(t, "C", srcs)) {
		t.Fatal("deduplicated payload differs from a local build")
	}
}

// TestServedDedupDistinctKeysDoNotCollide: requests differing only in
// one byte of one source, or only in configuration, never share a build.
func TestServedDedupDistinctKeysDoNotCollide(t *testing.T) {
	srcs := testSources(t)
	base := &BuildRequest{Config: "C", Sources: srcs}

	edited := &BuildRequest{Config: "C", Sources: append([]Source(nil), srcs...)}
	edited.Sources[0].Text += " "
	otherCfg := &BuildRequest{Config: "A", Sources: srcs}

	fp := "fp"
	if base.Key(fp) == edited.Key(fp) {
		t.Error("one-byte source edit did not change the request key")
	}
	if base.Key(fp) == otherCfg.Key(fp) {
		t.Error("configuration change did not change the request key")
	}
	if base.Key("fp1") == base.Key("fp2") {
		t.Error("toolchain fingerprint does not contribute to the request key")
	}
	if base.ProgramKey() != edited.ProgramKey() {
		t.Error("source edit changed the program identity (build dirs would never warm up)")
	}
	if base.ProgramKey() == otherCfg.ProgramKey() {
		t.Error("configuration does not contribute to the program identity")
	}
}
