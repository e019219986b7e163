package profagg

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ipra/internal/core"
	"ipra/internal/parv"
	"ipra/internal/telemetry"
)

func edge(caller, callee string) parv.EdgeKey {
	return parv.EdgeKey{Caller: caller, Callee: callee}
}

func testProfile() *parv.Profile {
	return &parv.Profile{
		Edges: map[parv.EdgeKey]uint64{
			edge("main", "p0"): 12,
			edge("p0", "p1"):   40,
			edge("p1", "p1"):   7,
		},
	}
}

// TestRecordRoundTrip: one generation, as a fleet client posts it, is a
// snapshot of one record whose counts are the profile times its runs; it
// decodes back equal, and no runs or garbage are rejected.
func TestRecordRoundTrip(t *testing.T) {
	r := NewAggregate("fp1", "prog1", "dh1")
	r.AddRuns(testProfile(), 4)
	if r.Runs != 4 || r.Records != 1 {
		t.Fatalf("totals = %d runs / %d records, want 4/1", r.Runs, r.Records)
	}
	if got := r.Edges[edge("p0", "p1")]; got != 4*40 {
		t.Fatalf("batched edge = %d, want %d", got, 4*40)
	}

	back, err := DecodeAggregate(r.Encode())
	if err != nil {
		t.Fatalf("DecodeAggregate: %v", err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, r)
	}

	if _, err := DecodeAggregate(NewAggregate("fp1", "prog1", "dh1").Encode()); err == nil {
		t.Fatal("zero-run record decoded without error")
	}
	if _, err := DecodeAggregate([]byte("garbage")); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

func TestAggregateRoundTrip(t *testing.T) {
	a := NewAggregate("fp1", "prog1", "dh1")
	a.AddRuns(testProfile(), 1)
	a.AddRuns(testProfile(), 3)
	if a.Runs != 4 || a.Records != 2 {
		t.Fatalf("totals = %d runs / %d records, want 4/2", a.Runs, a.Records)
	}
	if got := a.Edges[edge("p0", "p1")]; got != 4*40 {
		t.Fatalf("summed edge = %d, want %d", got, 4*40)
	}
	merged := NewAggregate("fp1", "prog1", "dh1")
	merged.Merge(a)
	merged.Merge(a)
	if merged.Runs != 8 || merged.Records != 4 || merged.Edges[edge("p0", "p1")] != 8*40 {
		t.Fatalf("merged totals = %d runs / %d records / %d, want 8/4/%d",
			merged.Runs, merged.Records, merged.Edges[edge("p0", "p1")], 8*40)
	}
	a.Retrained = true

	back, err := DecodeAggregate(a.Encode())
	if err != nil {
		t.Fatalf("DecodeAggregate: %v", err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, a)
	}
	if !bytes.Equal(a.Encode(), back.Encode()) {
		t.Fatal("re-encoding is not byte-stable")
	}

	h := profileHash(a.MeanProfile())
	if profileHash(back.MeanProfile()) != h {
		t.Fatal("mean-profile hash differs across a lossless round trip")
	}
	back.Edges[edge("p0", "p1")] += back.Runs
	if profileHash(back.MeanProfile()) == h {
		t.Fatal("mean-profile hash insensitive to a mean count change")
	}
}

// TestMeanProfile: the mean rounds to nearest, floors nonzero counts at
// one, and a fleet of identical runs reproduces the single-run profile
// exactly — the property that makes stable workloads drift-free.
func TestMeanProfile(t *testing.T) {
	a := NewAggregate("fp", "prog", "dh")
	a.Runs = 4
	a.Edges = map[parv.EdgeKey]uint64{
		edge("a", "b"): 10, // 10/4 -> 2.5 -> 3
		edge("a", "c"): 1,  // 0.25 -> 0 -> floored to 1
		edge("b", "c"): 9,  // 2.25 -> 2
	}
	m := a.MeanProfile()
	want := map[parv.EdgeKey]uint64{edge("a", "b"): 3, edge("a", "c"): 1, edge("b", "c"): 2}
	if !reflect.DeepEqual(m.Edges, want) {
		t.Fatalf("mean edges = %v, want %v", m.Edges, want)
	}

	one := testProfile()
	ident := NewAggregate("fp", "prog", "dh")
	ident.AddRuns(one, 37)
	if !reflect.DeepEqual(ident.MeanProfile(), one) {
		t.Fatal("mean over identical runs differs from the single run")
	}
}

// testModel is a drift model of directive hash dh trained on
// testProfile, so a post of testProfile's counts is checked for drift
// without an analysis.
func testModel(dh string) *DriftModel {
	return NewDriftModel(nil, core.Options{Profile: testProfile()}, dh)
}

func TestStoreIngestGuards(t *testing.T) {
	tr := telemetry.New()
	base := t.TempDir()
	s := New(Options{Fingerprint: "fp", Dir: func(p string) string { return filepath.Join(base, p) }, Tracer: tr})

	// Nothing registered a model for prog and no snapshot is stored: the
	// post is refused and leaves neither state nor directory behind.
	unknown := NewAggregate("fp", "prog", "dh")
	unknown.AddRuns(testProfile(), 1)
	if res, err := s.Ingest(unknown); err != nil || res.Accepted || res.Reason != ReasonUnknownProgram {
		t.Fatalf("a post for an unknown program: %+v, %v", res, err)
	}
	if n := s.Programs(); n != 0 {
		t.Fatalf("a refused post left %d program states", n)
	}
	if _, err := os.Stat(filepath.Join(base, "prog")); !os.IsNotExist(err) {
		t.Fatalf("a refused post created its directory (stat: %v)", err)
	}
	s.Register("prog", testModel("dh"), nil)

	stale := NewAggregate("other-fp", "prog", "dh")
	stale.AddRuns(testProfile(), 1)
	res, err := s.Ingest(stale)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if res.Accepted || res.Reason != ReasonStaleFingerprint {
		t.Fatalf("stale fingerprint accepted: %+v", res)
	}

	// A posted Retrained flag is the poster's, not the daemon's state.
	good := NewAggregate("fp", "prog", "dh")
	good.AddRuns(testProfile(), 1)
	good.Retrained = true
	if res, _ = s.Ingest(good); !res.Accepted || res.Runs != 1 {
		t.Fatalf("good aggregate not accepted: %+v", res)
	}
	if _, _, ok := s.ActiveAggregate("prog"); ok {
		t.Fatal("a posted Retrained flag activated the aggregate")
	}

	wrongDir := NewAggregate("fp", "prog", "dh-next")
	wrongDir.AddRuns(testProfile(), 1)
	if res, _ = s.Ingest(wrongDir); res.Accepted || res.Reason != ReasonStaleDirectives {
		t.Fatalf("stale directives accepted: %+v", res)
	}

	if _, err := s.Ingest(nil); err == nil {
		t.Fatal("nil aggregate ingested without error")
	}
	c := tr.Counters()
	if c["profagg.rejected_stale"] != 2 || c["profagg.rejected_unknown"] != 1 {
		t.Fatalf("rejected_stale = %d, rejected_unknown = %d, want 2 and 1", c["profagg.rejected_stale"], c["profagg.rejected_unknown"])
	}
	if c["profagg.runs"] != 1 || c["profagg.records"] != 4 {
		t.Fatalf("runs/records = %d/%d, want 1/4", c["profagg.runs"], c["profagg.records"])
	}
}

// TestStoreRestore: Restore re-installs a model only where none is live,
// so a cached reply of an earlier build cannot displace a later build's
// model, while a model the bounded table evicted comes back.
func TestStoreRestore(t *testing.T) {
	s := New(Options{Fingerprint: "fp", MaxPrograms: 1})
	post := func(dh string) *IngestResult {
		t.Helper()
		r := NewAggregate("fp", "prog", dh)
		r.AddRuns(testProfile(), 1)
		res, err := s.Ingest(r)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	s.Register("prog", testModel("dh-new"), nil)
	s.Restore("prog", testModel("dh-old"), nil)
	if res := post("dh-old"); res.Accepted || res.Reason != ReasonStaleDirectives {
		t.Fatalf("a post under the restored hash with a live model: %+v, want stale", res)
	}
	if res := post("dh-new"); !res.Accepted || !res.ModelReady {
		t.Fatalf("a post under the live model's hash: %+v, want accepted", res)
	}

	s.Register("other", testModel("dh"), nil) // evicts prog
	if res := post("dh-new"); res.Accepted || res.Reason != ReasonUnknownProgram {
		t.Fatalf("a post after eviction: %+v, want unknown", res)
	}
	s.Restore("prog", testModel("dh-old"), nil)
	if res := post("dh-old"); !res.Accepted || !res.ModelReady || res.Runs != 1 {
		t.Fatalf("a post after Restore: %+v, want accepted against the restored model", res)
	}
}

// TestStoreLRUAndPersistence: the per-program state map stays bounded
// under program churn, and evicted aggregates come back from their
// snapshots — including across a fresh Store (daemon restart), whose
// posts a stored snapshot makes known without a registered model.
func TestStoreLRUAndPersistence(t *testing.T) {
	base := t.TempDir()
	dir := func(p string) string { return filepath.Join(base, p) }
	tr := telemetry.New()
	s := New(Options{Fingerprint: "fp", Dir: dir, MaxPrograms: 2, Tracer: tr})

	for i, prog := range []string{"a", "b", "c", "a"} {
		if i < 3 {
			s.Register(prog, testModel("dh"), nil)
		}
		r := NewAggregate("fp", prog, "dh")
		r.AddRuns(testProfile(), 1)
		if res, err := s.Ingest(r); err != nil || !res.Accepted {
			t.Fatalf("ingest %s: %v / %+v", prog, err, res)
		}
	}
	if n := s.Programs(); n > 2 {
		t.Fatalf("Programs() = %d, want <= 2", n)
	}
	if tr.Counters()["profagg.evictions"] == 0 {
		t.Fatal("no evictions recorded under churn")
	}
	// "a" was evicted before its second record; the snapshot must have
	// carried run 1 forward.
	snap, ok := s.Snapshot("a")
	if !ok {
		t.Fatal("no snapshot for a")
	}
	agg, err := DecodeAggregate(snap)
	if err != nil || agg.Runs != 2 {
		t.Fatalf("reloaded aggregate runs = %d (err %v), want 2", agg.Runs, err)
	}

	// A fresh store over the same directory resumes where this one left.
	s2 := New(Options{Fingerprint: "fp", Dir: dir})
	r := NewAggregate("fp", "b", "dh")
	r.AddRuns(testProfile(), 1)
	res, err := s2.Ingest(r)
	if err != nil || !res.Accepted {
		t.Fatalf("restart ingest: %v / %+v", err, res)
	}
	if res.Runs != 2 || res.Records != 2 {
		t.Fatalf("restart totals = %d runs / %d records, want 2/2", res.Runs, res.Records)
	}

	// A store with a different fingerprint must ignore the stale snapshot.
	s3 := New(Options{Fingerprint: "fp2", Dir: dir})
	if _, ok := s3.Snapshot("b"); ok {
		t.Fatal("stale-fingerprint snapshot was loaded")
	}
}
