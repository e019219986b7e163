package profagg

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ipra/internal/lru"
	"ipra/internal/parv"
	"ipra/internal/telemetry"
)

// snapshotFile is the aggregate's on-disk name inside a program's build
// directory. The incremental store's artifact pruning only touches its
// own prefixed files, so the snapshot survives minimal rebuilds.
const snapshotFile = "profagg.snapshot"

// Options configure a Store.
type Options struct {
	// Fingerprint is the daemon's toolchain fingerprint; counts stamped
	// with any other are rejected as stale.
	Fingerprint string
	// Dir maps a program key to its persistent directory (typically the
	// program's incremental build dir); nil or "" keeps that program's
	// aggregate in memory only.
	Dir func(program string) string
	// MaxPrograms bounds the in-memory per-program states (LRU);
	// 0 means 128. Evicted aggregates live on in their snapshots; the
	// evicted drift model comes back with the next Register or Restore.
	MaxPrograms int
	// Tracer receives the profagg.* counters; nil allocates one.
	Tracer *telemetry.Tracer
}

// Store is the daemon-side aggregation service: per-program aggregates,
// drift models, and snapshot persistence behind one mutex. Drift checks
// read only their model, so they run outside it.
type Store struct {
	opts   Options
	tracer *telemetry.Tracer

	mu       sync.Mutex
	programs *lru.Cache[string, *programState] // by program key
}

// programState is one program's live aggregation state.
type programState struct {
	program string
	agg     *Aggregate
	model   *DriftModel
	// meta is the embedder's opaque build context (ipra-served stores
	// the program's last BuildRequest so drift can trigger a rebuild).
	meta any
}

// IngestResult reports what one posted aggregate did to the program's.
type IngestResult struct {
	// Accepted is false when the posted counts were rejected as stale or
	// for a program the store does not know; Reason then carries the
	// machine-readable cause.
	Accepted bool
	Reason   string
	// Drifted reports that analyzing the program under the post-merge
	// aggregate's mean profile yields another program database than the
	// registered build's (only checked when ModelReady).
	Drifted bool
	// ModelReady is true when a drift model was available to check
	// against (a profiled build of the program has run in this daemon).
	ModelReady bool
	// Runs and Records are the aggregate totals after the merge.
	Runs, Records uint64
}

// Rejection reasons. A program is unknown until a profiled build of it
// registers a drift model or its directory holds a snapshot: only then is
// there an allocation its counts can be checked against.
const (
	ReasonStaleFingerprint = "stale-fingerprint"
	ReasonStaleDirectives  = "stale-directives"
	ReasonUnknownProgram   = "unknown-program"
)

// New returns an empty store.
func New(opts Options) *Store {
	if opts.MaxPrograms <= 0 {
		opts.MaxPrograms = 128
	}
	if opts.Tracer == nil {
		opts.Tracer = telemetry.New()
	}
	return &Store{
		opts:     opts,
		tracer:   opts.Tracer,
		programs: lru.New[string, *programState](opts.MaxPrograms),
	}
}

// dirFor resolves a program's persistence directory ("" = memory only).
func (s *Store) dirFor(program string) string {
	if s.opts.Dir == nil {
		return ""
	}
	return s.opts.Dir(program)
}

// lookup returns the program's live state, loading its persisted
// snapshot on first touch, or nil when the store knows nothing of the
// program: no state in memory and no snapshot of this toolchain on disk.
// Caller holds s.mu.
func (s *Store) lookup(program string) *programState {
	if st, ok := s.programs.Get(program); ok {
		return st
	}
	dir := s.dirFor(program)
	if dir == "" {
		return nil
	}
	data, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil
	}
	agg, err := DecodeAggregate(data)
	if err != nil || agg.Fingerprint != s.opts.Fingerprint || agg.Program != program {
		return nil
	}
	s.tracer.Add("profagg.snapshot_loads", 1)
	return s.add(&programState{program: program, agg: agg})
}

// add makes st the program's live state. Caller holds s.mu.
func (s *Store) add(st *programState) *programState {
	if n := s.programs.Put(st.program, st); n > 0 {
		s.tracer.Add("profagg.evictions", int64(n))
	}
	return st
}

// persist writes the program's snapshot (atomic rename). Caller holds
// s.mu.
func (s *Store) persist(st *programState) {
	dir := s.dirFor(st.program)
	if dir == "" || st.agg == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	tmp := filepath.Join(dir, snapshotFile+".tmp")
	if err := os.WriteFile(tmp, st.agg.Encode(), 0o644); err != nil {
		return
	}
	if os.Rename(tmp, filepath.Join(dir, snapshotFile)) == nil {
		s.tracer.Add("profagg.snapshot_writes", 1)
	}
}

// Ingest validates and merges one posted aggregate (its Retrained flag is
// ignored) into a program the store knows, then checks the post-merge
// aggregate for drift when a model is available. The check runs after the
// store's lock is released: it is a whole analysis, and other programs'
// posts and every profiled build request take the same lock. Rejections
// are reported in the result, not as errors; the error path is reserved
// for malformed input.
func (s *Store) Ingest(posted *Aggregate) (*IngestResult, error) {
	if posted == nil || posted.Program == "" {
		return nil, fmt.Errorf("profagg: posted aggregate has no program key")
	}
	out, model, mean := s.merge(posted)
	if model != nil {
		s.tracer.Add("profagg.drift_checks", 1)
		if out.Drifted = model.Drifted(mean); out.Drifted {
			s.tracer.Add("profagg.drift_detected", 1)
		}
	}
	return out, nil
}

// merge is Ingest's locked half: it validates and merges posted, persists
// the aggregate, and returns the result plus the model and mean profile
// to check (nil when the post was rejected or no model is registered).
func (s *Store) merge(posted *Aggregate) (*IngestResult, *DriftModel, *parv.Profile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer.Add("profagg.records", 1)

	if posted.Fingerprint != s.opts.Fingerprint {
		s.tracer.Add("profagg.rejected_stale", 1)
		return &IngestResult{Reason: ReasonStaleFingerprint}, nil, nil
	}
	// A live state holds a model, an aggregate or both.
	st := s.lookup(posted.Program)
	if st == nil {
		s.tracer.Add("profagg.rejected_unknown", 1)
		return &IngestResult{Reason: ReasonUnknownProgram}, nil, nil
	}
	var expect string
	if st.model != nil {
		expect = st.model.DirectiveHash
	} else {
		expect = st.agg.DirectiveHash
	}
	if posted.DirectiveHash != expect {
		s.tracer.Add("profagg.rejected_stale", 1)
		return &IngestResult{Reason: ReasonStaleDirectives, ModelReady: st.model != nil}, nil, nil
	}

	if st.agg == nil {
		st.agg = NewAggregate(posted.Fingerprint, posted.Program, posted.DirectiveHash)
	}
	st.agg.Merge(posted)
	s.tracer.Add("profagg.runs", int64(posted.Runs))
	s.persist(st)

	out := &IngestResult{
		Accepted:   true,
		ModelReady: st.model != nil,
		Runs:       st.agg.Runs,
		Records:    st.agg.Records,
	}
	if st.model == nil {
		return out, nil, nil
	}
	return out, st.model, st.agg.MeanProfile()
}

// Register installs the drift model of a profiled build of the program,
// with the embedder's build context. An aggregate marked Retrained was
// that build's training input: it is kept and re-pinned to the model's
// directive hash, so the fleet's next records — produced by binaries of
// the retrained build — are accepted. Any other aggregate measured under
// another directive hash resets: its counts belong to a different
// allocation, and collection starts over against the new binary.
func (s *Store) Register(program string, model *DriftModel, meta any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.register(program, model, meta)
}

// Restore registers model as Register does, but only when the program has
// no live drift model: an embedder answering a profiled request from a
// cache of earlier builds re-installs the model of the build it replays
// when the bounded state table evicted it, and leaves a live model, which
// may be a later build's, alone.
func (s *Store) Restore(program string, model *DriftModel, meta any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.programs.Get(program); ok && st.model != nil {
		return
	}
	s.register(program, model, meta)
}

// register is Register's locked half. Caller holds s.mu.
func (s *Store) register(program string, model *DriftModel, meta any) {
	st := s.lookup(program)
	if st == nil {
		st = s.add(&programState{program: program})
	}
	st.model = model
	st.meta = meta
	switch {
	case st.agg == nil:
	case st.agg.Retrained:
		st.agg.DirectiveHash = model.DirectiveHash
		s.persist(st)
	case st.agg.DirectiveHash != model.DirectiveHash:
		st.agg = nil
		s.tracer.Add("profagg.aggregate_resets", 1)
		if dir := s.dirFor(program); dir != "" {
			os.Remove(filepath.Join(dir, snapshotFile))
		}
	}
}

// ActiveAggregate returns the mean profile a build of the program must
// use, and its digest — set once a drift-triggered re-analysis has
// committed to the aggregated allocation. The profile feeds
// WithAggregatedProfile; the digest extends the daemon's request keys. It
// covers only what the build reads, so neither the re-analysis's Register
// re-pinning the directive hash nor a post that leaves the mean unchanged
// moves the key. A program not in memory loads its snapshot, so a
// persisted retrained aggregate still gates builds after a daemon
// restart.
func (s *Store) ActiveAggregate(program string) (hash string, profile *parv.Profile, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.lookup(program)
	if st == nil || st.agg == nil || !st.agg.Retrained {
		return "", nil, false
	}
	mean := st.agg.MeanProfile()
	return profileHash(mean), mean, true
}

// BeginRetrain flips the program onto its aggregated allocation and
// returns the embedder's build context. From this point ActiveAggregate
// gates every build of the program; the embedder runs the rebuild and
// either Register (success) or AbortRetrain (failure).
func (s *Store) BeginRetrain(program string) (meta any, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, found := s.programs.Get(program)
	if !found || st.model == nil || st.agg == nil || st.meta == nil {
		return nil, false
	}
	st.agg.Retrained = true
	s.persist(st)
	return st.meta, true
}

// AbortRetrain reverts BeginRetrain after a failed rebuild.
func (s *Store) AbortRetrain(program string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.programs.Get(program); ok && st.agg != nil {
		st.agg.Retrained = false
		s.persist(st)
	}
}

// Snapshot returns the program's encoded aggregate, if any — the
// /v1/profile/snapshot payload clients fetch to reproduce the daemon's
// aggregated build locally.
func (s *Store) Snapshot(program string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.lookup(program)
	if st == nil || st.agg == nil {
		return nil, false
	}
	return st.agg.Encode(), true
}

// Programs reports how many program states are live in memory (tests).
func (s *Store) Programs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.programs.Len()
}
