package served

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"ipra"
	"ipra/internal/parv"
	"ipra/internal/profagg"
	"ipra/internal/progen"
	"ipra/internal/wire"
)

// runExe decodes a served executable and runs it on the simulator with
// edge profiling — what a fleet member does before streaming counts back.
func runExe(t *testing.T, exe []byte) *parv.Profile {
	t.Helper()
	decoded, err := parv.DecodeExecutable(exe)
	if err != nil {
		t.Fatalf("decode exe: %v", err)
	}
	vm := parv.NewVM(decoded)
	vm.ProfileEdges = true
	if _, err := vm.Run(0); err != nil {
		t.Fatalf("vm run: %v", err)
	}
	return vm.Profile()
}

// TestProfileDriftEndToEnd drives the whole aggregation pipeline over
// HTTP: a profiled build trains the drift model, stable generations of
// fleet counts merge without triggering anything, a shifted generation
// moves the program's directives and provokes exactly one re-analysis,
// and the retrained executable the daemon then serves is byte-identical
// to a clean local build on the aggregate's mean profile.
func TestProfileDriftEndToEnd(t *testing.T) {
	srv := New(Options{Jobs: 2, StateDir: t.TempDir()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	srcs := testSources(t)
	req := &BuildRequest{Config: "B", Sources: srcs}
	program := req.ProgramKey()

	resp, err := client.Build(ctx, req)
	if err != nil {
		t.Fatalf("training build: %v", err)
	}
	if resp.DirectiveHash == "" {
		t.Fatal("profiled build carries no directive hash")
	}

	// Two stable generations: the fleet runs the served binary and
	// streams back counts that match the training run.
	stable := runExe(t, resp.Exe)
	for gen := 0; gen < 2; gen++ {
		counts := profagg.NewAggregate(srv.Fingerprint(), program, resp.DirectiveHash)
		counts.AddRuns(stable, 4)
		ir, err := client.IngestProfile(ctx, counts.Encode())
		if err != nil {
			t.Fatalf("stable gen %d: %v", gen, err)
		}
		if !ir.Accepted || !ir.ModelReady {
			t.Fatalf("stable gen %d: %+v, want accepted with a live model", gen, ir)
		}
		if ir.Drifted || ir.Reanalyzed {
			t.Fatalf("stable gen %d triggered a re-analysis: %+v", gen, ir)
		}
	}

	// A workload shift: one generation heavy enough to move the mean.
	shifted := profagg.NewAggregate(srv.Fingerprint(), program, resp.DirectiveHash)
	shifted.AddRuns(progen.SynthesizeProfile(testProgram, 1), 64)
	ir, err := client.IngestProfile(ctx, shifted.Encode())
	if err != nil {
		t.Fatalf("shifted gen: %v", err)
	}
	if !ir.Accepted || !ir.Drifted || !ir.Reanalyzed {
		t.Fatalf("shifted gen: %+v, want accepted+drifted+reanalyzed", ir)
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Counters["profagg.drift_checks"]; got != 3 {
		t.Errorf("drift_checks = %d, want 3", got)
	}
	if got := stats.Counters["profagg.drift_detected"]; got != 1 {
		t.Errorf("drift_detected = %d, want 1", got)
	}
	if got := stats.Counters["profagg.reanalyses"]; got != 1 {
		t.Errorf("reanalyses = %d, want exactly 1", got)
	}

	// The same request now serves the retrained allocation.
	resp2, err := client.Build(ctx, req)
	if err != nil {
		t.Fatalf("post-retrain build: %v", err)
	}
	if ir.DirectiveHash == resp.DirectiveHash {
		t.Fatal("the re-analysis kept the trained directive hash")
	}

	// Byte-identity oracle: a clean local build on the aggregate's mean
	// profile must reproduce the daemon's retrained bytes exactly.
	snap, err := client.ProfileSnapshot(ctx, program)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	agg, err := profagg.DecodeAggregate(snap)
	if err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	if !agg.Retrained {
		t.Fatal("snapshot not marked retrained")
	}
	sources := make([]ipra.Source, len(srcs))
	for i, s := range srcs {
		sources[i] = ipra.Source{Name: s.Name, Text: []byte(s.Text)}
	}
	local, err := ipra.Build(ctx, sources, ipra.MustPreset("B"),
		ipra.WithAggregatedProfile(agg.MeanProfile()))
	if err != nil {
		t.Fatalf("local aggregated build: %v", err)
	}
	var buf bytes.Buffer
	if err := parv.EncodeExecutable(&buf, local.Exe); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), resp2.Exe) {
		t.Fatal("daemon's retrained executable differs from a clean local build on the aggregated profile")
	}
}

// TestProfileRequestReusedAcrossReanalyses: a caller that keeps one
// request across two drift-triggered re-analyses gets each re-analysis's
// allocation, as a fresh request does; the program's active aggregate is
// resolved on every Build, never remembered in the request.
func TestProfileRequestReusedAcrossReanalyses(t *testing.T) {
	srv := New(Options{Jobs: 2})
	ctx := context.Background()
	srcs := testSources(t)
	req := &BuildRequest{Config: "B", Sources: srcs}
	resp, err := srv.Build(ctx, req)
	if err != nil {
		t.Fatalf("training build: %v", err)
	}
	hash := resp.DirectiveHash
	for _, shift := range []struct {
		phase int
		runs  uint64
	}{{1, 64}, {2, 128}} {
		gen := profagg.NewAggregate(srv.Fingerprint(), req.ProgramKey(), hash)
		gen.AddRuns(progen.SynthesizeProfile(testProgram, shift.phase), shift.runs)
		ir, err := srv.IngestProfile(ctx, gen)
		if err != nil || !ir.Reanalyzed {
			t.Fatalf("phase %d: %+v, %v; want a re-analysis", shift.phase, ir, err)
		}
		reused, err := srv.Build(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := srv.Build(ctx, &BuildRequest{Config: "B", Sources: srcs})
		if err != nil {
			t.Fatal(err)
		}
		if reused.DirectiveHash != ir.DirectiveHash || fresh.DirectiveHash != ir.DirectiveHash {
			t.Fatalf("phase %d: reused request got %s, fresh one %s; the re-analysis produced %s",
				shift.phase, reused.DirectiveHash, fresh.DirectiveHash, ir.DirectiveHash)
		}
		hash = ir.DirectiveHash
	}
}

// TestProfileRetrainedKeyFollowsMean: a retrained program's request key
// covers the aggregate's mean profile, the only part of the aggregate its
// build reads. The request repeated after the re-analysis, and after a
// post that leaves the mean unchanged, is a result-cache hit; after a post
// that moves the mean it is built again, equal to a local build on the
// new mean.
func TestProfileRetrainedKeyFollowsMean(t *testing.T) {
	srv := New(Options{Jobs: 2, StateDir: t.TempDir()})
	ctx := context.Background()
	srcs := testSources(t)
	req := &BuildRequest{Config: "B", Sources: srcs}
	program := req.ProgramKey()
	resp, err := srv.Build(ctx, req)
	if err != nil {
		t.Fatalf("training build: %v", err)
	}
	post := func(hash string, p *parv.Profile, runs uint64) *ProfileIngestResponse {
		t.Helper()
		gen := profagg.NewAggregate(srv.Fingerprint(), program, hash)
		gen.AddRuns(p, runs)
		ir, err := srv.IngestProfile(ctx, gen)
		if err != nil || !ir.Accepted {
			t.Fatalf("post of %d runs: %+v, %v; want accepted", runs, ir, err)
		}
		return ir
	}
	builds := func() int64 { return srv.Counters()["served.builds"] }

	// 64 runs of one profile: the mean is that profile, exactly.
	shifted := progen.SynthesizeProfile(testProgram, 1)
	ir := post(resp.DirectiveHash, shifted, 64)
	if !ir.Reanalyzed {
		t.Fatalf("shifted post: %+v, want a re-analysis", ir)
	}
	if n := builds(); n != 2 {
		t.Fatalf("served.builds = %d after the re-analysis, want 2", n)
	}
	for _, step := range []string{"the re-analysis", "a post that leaves the mean unchanged"} {
		if step != "the re-analysis" {
			if ir := post(ir.DirectiveHash, shifted, 4); ir.Drifted {
				t.Fatalf("%s drifted: %+v", step, ir)
			}
		}
		hit, err := srv.Build(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !hit.ResultCached || hit.DirectiveHash != ir.DirectiveHash {
			t.Errorf("request after %s: cached=%v, directives %s; want a result-cache hit on %s",
				step, hit.ResultCached, hit.DirectiveHash, ir.DirectiveHash)
		}
		if n := builds(); n != 2 {
			t.Errorf("served.builds = %d after %s, want 2", n, step)
		}
	}

	// As many runs of another workload phase move the mean.
	moved := post(ir.DirectiveHash, progen.SynthesizeProfile(testProgram, 2), 68)
	rebuilt, err := srv.Build(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if n := builds(); n != 3 {
		t.Errorf("served.builds = %d after a post that moves the mean (reanalyzed=%v), want 3", n, moved.Reanalyzed)
	}
	snap, ok := srv.profiles.Snapshot(program)
	if !ok {
		t.Fatal("no snapshot of the retrained program")
	}
	agg, err := profagg.DecodeAggregate(snap)
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]ipra.Source, len(srcs))
	for i, s := range srcs {
		sources[i] = ipra.Source{Name: s.Name, Text: []byte(s.Text)}
	}
	local, err := ipra.Build(ctx, sources, ipra.MustPreset("B"), ipra.WithAggregatedProfile(agg.MeanProfile()))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := parv.EncodeExecutable(&buf, local.Exe); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), rebuilt.Exe) {
		t.Error("the build after the mean moved differs from a local build on the new mean")
	}
}

// TestProfileModelSurvivesUnprofiledBuilds: only a profiled
// configuration's program can have an aggregate, so builds under any
// other configuration leave the profile store alone and cannot evict a
// trained program's drift model from its bounded state table.
func TestProfileModelSurvivesUnprofiledBuilds(t *testing.T) {
	srv := New(Options{Jobs: 1, ProfilePrograms: 2})
	ctx := context.Background()
	req := &BuildRequest{Config: "B", Sources: testSources(t)}
	resp, err := srv.Build(ctx, req)
	if err != nil {
		t.Fatalf("training build: %v", err)
	}
	for i := 0; i < 3; i++ {
		src := Source{Name: fmt.Sprintf("m%d.mc", i), Text: "int main() { return 0; }\n"}
		if _, err := srv.Build(ctx, &BuildRequest{Config: "C", Sources: []Source{src}}); err != nil {
			t.Fatalf("C build %d: %v", i, err)
		}
	}
	gen := profagg.NewAggregate(srv.Fingerprint(), req.ProgramKey(), resp.DirectiveHash)
	gen.AddRuns(runExe(t, resp.Exe), 1)
	ir, err := srv.IngestProfile(ctx, gen)
	if err != nil {
		t.Fatal(err)
	}
	if !ir.Accepted || !ir.ModelReady {
		t.Fatalf("generation after three C builds: %+v, want accepted with a live model", ir)
	}
	if n := srv.Counters()["profagg.evictions"]; n != 0 {
		t.Errorf("profagg.evictions = %d after unprofiled builds, want 0", n)
	}
}

// TestProfileResultHitRestoresModel: a B request answered from the result
// cache re-installs its build's drift model after the profile store's
// bounded table evicted it, so the program's fleet posts, refused as
// unknown while no model or snapshot backs them, are accepted again
// without another build.
func TestProfileResultHitRestoresModel(t *testing.T) {
	srv := New(Options{Jobs: 1, StateDir: t.TempDir(), ProfilePrograms: 1})
	ctx := context.Background()
	req := &BuildRequest{Config: "B", Sources: testSources(t)}
	resp, err := srv.Build(ctx, req)
	if err != nil {
		t.Fatalf("training build: %v", err)
	}
	other := &BuildRequest{Config: "B", Sources: []Source{{Name: "m.mc", Text: "int main() { return 0; }\n"}}}
	if _, err := srv.Build(ctx, other); err != nil {
		t.Fatalf("second program's build: %v", err)
	}
	if n := srv.Counters()["profagg.evictions"]; n != 1 {
		t.Fatalf("profagg.evictions = %d after a second B program, want 1", n)
	}
	gen := profagg.NewAggregate(srv.Fingerprint(), req.ProgramKey(), resp.DirectiveHash)
	gen.AddRuns(runExe(t, resp.Exe), 1)
	post := func() *ProfileIngestResponse {
		t.Helper()
		ir, err := srv.IngestProfile(ctx, gen)
		if err != nil {
			t.Fatal(err)
		}
		return ir
	}
	if ir := post(); ir.Accepted || ir.Reason != profagg.ReasonUnknownProgram {
		t.Fatalf("a post after the model's eviction: %+v, want refused as %s", ir, profagg.ReasonUnknownProgram)
	}

	hit, err := srv.Build(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.ResultCached {
		t.Fatal("the training request sent again was rebuilt, want a result-cache hit")
	}
	if ir := post(); !ir.Accepted || !ir.ModelReady || ir.Drifted || ir.Runs != 1 {
		t.Fatalf("a post after the result-cache hit: %+v, want accepted against the model", ir)
	}
	if n := srv.Counters()["served.builds"]; n != 2 {
		t.Errorf("served.builds = %d, want 2", n)
	}
}

// TestProfileVersionGuard: counts stamped by a stale toolchain or a stale
// allocation are rejected, not merged — mixing counts measured under
// different allocations would corrupt the aggregate — and a body in any
// format but a profile snapshot, the profagg-record kind this endpoint
// took before included, is a bad request.
func TestProfileVersionGuard(t *testing.T) {
	srv := New(Options{Jobs: 2, StateDir: t.TempDir()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	srcs := testSources(t)
	req := &BuildRequest{Config: "B", Sources: srcs}
	resp, err := client.Build(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	program := req.ProgramKey()
	prof := runExe(t, resp.Exe)

	wrongFP := profagg.NewAggregate("stale-toolchain", program, resp.DirectiveHash)
	wrongFP.AddRuns(prof, 1)
	ir, err := client.IngestProfile(ctx, wrongFP.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if ir.Accepted || ir.Reason != profagg.ReasonStaleFingerprint {
		t.Fatalf("stale-toolchain snapshot: %+v", ir)
	}

	wrongHash := profagg.NewAggregate(srv.Fingerprint(), program, "0000000000000000")
	wrongHash.AddRuns(prof, 1)
	if ir, err = client.IngestProfile(ctx, wrongHash.Encode()); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted || ir.Reason != profagg.ReasonStaleDirectives {
		t.Fatalf("stale-allocation snapshot: %+v", ir)
	}

	// A profagg-record v1 body: fingerprint, program, directive hash,
	// runs, then the edges.
	e := wire.NewEncoder("profagg-record", 1)
	e.Str(srv.Fingerprint())
	e.Str(program)
	e.Str(resp.DirectiveHash)
	e.U(1)
	e.U(0)
	for name, body := range map[string][]byte{"garbage": []byte("not a snapshot"), "profagg-record": e.Finish()} {
		_, err := client.IngestProfile(ctx, body)
		if se, ok := err.(*StatusError); !ok || se.Code != http.StatusBadRequest || se.Reason != ReasonBadRequest {
			t.Errorf("%s body: got %v, want a 400 %q StatusError", name, err, ReasonBadRequest)
		}
	}

	c := srv.Counters()
	if c["profagg.rejected_stale"] != 2 {
		t.Errorf("rejected_stale = %d, want 2", c["profagg.rejected_stale"])
	}
	if c["profagg.drift_checks"] != 0 {
		t.Errorf("drift_checks = %d after only rejected records, want 0", c["profagg.drift_checks"])
	}
	if c["profagg.runs"] != 0 {
		t.Errorf("profagg.runs = %d, stale counts were merged", c["profagg.runs"])
	}
}

// TestProfileProgramKeyConfined: the daemon keeps a program's aggregate in
// a directory named by its program key, so a key of any other shape than
// ProgramKey's (16 lowercase hex digits) is refused with 400 bad-request
// at /v1/profile and at the snapshot endpoint, and "../escaped" writes
// nothing outside the state directory.
func TestProfileProgramKeyConfined(t *testing.T) {
	root := t.TempDir()
	srv := New(Options{Jobs: 1, StateDir: filepath.Join(root, "state")})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	prof := &parv.Profile{Edges: map[parv.EdgeKey]uint64{{Caller: "main", Callee: "f"}: 3}}
	generation := func(program string) *profagg.Aggregate {
		gen := profagg.NewAggregate(srv.Fingerprint(), program, "directives")
		gen.AddRuns(prof, 2)
		return gen
	}
	badRequest := func(what string, err error) {
		t.Helper()
		if se, ok := err.(*StatusError); !ok || se.Code != http.StatusBadRequest || se.Reason != ReasonBadRequest {
			t.Errorf("%s: got %v, want a 400 %q StatusError", what, err, ReasonBadRequest)
		}
	}

	for _, program := range []string{"../escaped", "/tmp/abs", "0123456789ABCDEF", "0123456789abcde", "0123456789abcdef0"} {
		if _, err := srv.IngestProfile(ctx, generation(program)); err == nil {
			t.Errorf("IngestProfile accepted program %q", program)
		}
		_, err := client.IngestProfile(ctx, generation(program).Encode())
		badRequest("snapshot for "+program, err)
		_, err = client.ProfileSnapshot(ctx, program)
		badRequest("snapshot of "+program, err)
	}
	if _, err := os.Stat(filepath.Join(root, "escaped")); !os.IsNotExist(err) {
		t.Errorf("a snapshot for ../escaped touched %s (stat: %v)", filepath.Join(root, "escaped"), err)
	}

	// The key of a program built under a profiled configuration is
	// still served.
	req := &BuildRequest{Config: "B", Sources: testSources(t)}
	resp, err := client.Build(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	program := req.ProgramKey()
	gen := profagg.NewAggregate(srv.Fingerprint(), program, resp.DirectiveHash)
	gen.AddRuns(prof, 2)
	ir, err := client.IngestProfile(ctx, gen.Encode())
	if err != nil || !ir.Accepted {
		t.Fatalf("snapshot for a well-formed key: %+v, %v", ir, err)
	}
	snap, err := client.ProfileSnapshot(ctx, program)
	if err != nil {
		t.Fatal(err)
	}
	if agg, err := profagg.DecodeAggregate(snap); err != nil || agg.Program != program || agg.Runs != 2 {
		t.Fatalf("snapshot of a well-formed key: %+v, %v", agg, err)
	}
}

// TestProfileUnknownProgramRefused: the daemon merges fleet counts only
// into a program it built under a profiled configuration (or whose
// snapshot it holds). A post for a key nothing built, and one for a
// program built under C, which has no drift model, are refused as
// unknown-program, counted, and leave no snapshot behind; once a B build
// of the program has run, its posts are accepted.
func TestProfileUnknownProgramRefused(t *testing.T) {
	state := t.TempDir()
	srv := New(Options{Jobs: 1, StateDir: state})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	srcs := testSources(t)
	prof := &parv.Profile{Edges: map[parv.EdgeKey]uint64{{Caller: "main", Callee: "f"}: 3}}
	post := func(program, directiveHash string) *ProfileIngestResponse {
		t.Helper()
		gen := profagg.NewAggregate(srv.Fingerprint(), program, directiveHash)
		gen.AddRuns(prof, 2)
		ir, err := client.IngestProfile(ctx, gen.Encode())
		if err != nil {
			t.Fatal(err)
		}
		return ir
	}
	snapshot := func(program string) string { return filepath.Join(state, program, "profagg.snapshot") }

	reqB := &BuildRequest{Config: "B", Sources: srcs}
	keyB := reqB.ProgramKey()
	if ir := post(keyB, "directives"); ir.Accepted || ir.Reason != profagg.ReasonUnknownProgram {
		t.Errorf("a post for a key nothing built: %+v, want refused as %s", ir, profagg.ReasonUnknownProgram)
	}
	if _, err := os.Stat(filepath.Join(state, keyB)); !os.IsNotExist(err) {
		t.Errorf("a refused post created the program's directory (stat: %v)", err)
	}

	reqC := &BuildRequest{Config: "C", Sources: srcs}
	respC, err := client.Build(ctx, reqC)
	if err != nil {
		t.Fatal(err)
	}
	keyC := reqC.ProgramKey()
	if ir := post(keyC, respC.DirectiveHash); ir.Accepted || ir.Reason != profagg.ReasonUnknownProgram {
		t.Errorf("a post for a program built under C: %+v, want refused as %s", ir, profagg.ReasonUnknownProgram)
	}
	if _, err := os.Stat(snapshot(keyC)); !os.IsNotExist(err) {
		t.Errorf("a refused post wrote a snapshot (stat: %v)", err)
	}
	if _, err := client.ProfileSnapshot(ctx, keyC); err == nil {
		t.Error("the daemon serves a snapshot of a program built under C")
	}

	respB, err := client.Build(ctx, reqB)
	if err != nil {
		t.Fatal(err)
	}
	if ir := post(keyB, respB.DirectiveHash); !ir.Accepted || !ir.ModelReady || ir.Runs != 2 {
		t.Errorf("a post after the B build: %+v, want accepted against the model", ir)
	}
	if _, err := os.Stat(snapshot(keyB)); err != nil {
		t.Errorf("an accepted post wrote no snapshot: %v", err)
	}
	if n := srv.Counters()["profagg.rejected_unknown"]; n != 2 {
		t.Errorf("profagg.rejected_unknown = %d, want 2", n)
	}
}
