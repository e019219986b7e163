// Package profagg is the fleet-scale profile-aggregation service behind
// ipra-served's /v1/profile endpoint: it merges the call-edge counts of
// many VM runs, posted as snapshots of one generation each, into
// per-program aggregates persisted as snapshots in the program's build
// directory, and detects profile drift — the point where the aggregated
// counts would change the program database — so re-analysis is triggered
// only when it changes the allocation. The snapshot, an encoded
// Aggregate, is the one profile artifact; mvm -profile writes one run.
//
// Versioning: every posted aggregate carries the producing binary's
// toolchain fingerprint and the directive hash of the program database it
// was compiled against. Counts from a stale binary (either mismatch) are
// rejected rather than merged; mixing counts measured under different
// allocations would corrupt the aggregate, because the directives change
// which procedures pay save/restore traffic.
//
// Drift detection re-runs the program analyzer over the build's summaries
// under the aggregate's mean profile and compares the resulting program
// database's hash with the one the current allocation was built from; a
// re-analysis fires exactly when it would change a directive. See
// drift.go.
package profagg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"ipra/internal/parv"
	"ipra/internal/wire"
)

// The wire kind and version of the one profagg artifact, an Aggregate.
const (
	snapshotKind    = "profagg-snapshot"
	snapshotVersion = 1
)

// Aggregate is call-edge counts summed over runs of one program binary,
// stamped with what produced them: one posted generation, or the merged
// state of every generation the daemon accepted for the program.
type Aggregate struct {
	// Fingerprint is ipra.ToolchainFingerprint() of the binary's builder.
	Fingerprint string
	// Program is the served program key (config + strategy + module set)
	// the counts belong to.
	Program string
	// DirectiveHash is the program database hash of the build the
	// profiled binary came from; it pins the allocation the counts were
	// measured under.
	DirectiveHash string
	// Runs counts the VM runs summed into Edges; Records the generations
	// (a client batches one generation of runs per post, statsd-style).
	Runs, Records uint64
	// Retrained marks that the current allocation was re-analyzed from
	// this aggregate (rather than from a single training run); a daemon
	// restart resumes serving the aggregated allocation. It is the
	// daemon's own state: a posted aggregate's flag is ignored.
	Retrained bool
	// Edges are the summed call-edge counts.
	Edges map[parv.EdgeKey]uint64
}

// NewAggregate starts an empty aggregate for the identified program.
func NewAggregate(fingerprint, program, directiveHash string) *Aggregate {
	return &Aggregate{
		Fingerprint:   fingerprint,
		Program:       program,
		DirectiveHash: directiveHash,
		Edges:         make(map[parv.EdgeKey]uint64),
	}
}

// AddRuns folds in one generation: a profile representing runs identical
// runs — one run's profile with runs 1, or a synthetic or batched
// generation without materializing every run.
func (a *Aggregate) AddRuns(p *parv.Profile, runs uint64) {
	a.Runs += runs
	a.Records++
	for k, n := range p.Edges {
		a.Edges[k] += n * runs
	}
}

// Merge folds another aggregate's runs, records and counts in. Identity
// checks happen in the store; Merge just sums.
func (a *Aggregate) Merge(b *Aggregate) {
	a.Runs += b.Runs
	a.Records += b.Records
	for k, n := range b.Edges {
		a.Edges[k] += n
	}
}

// sortedEdges returns the edge set in (caller, callee) order — the
// canonical serialization and hashing order.
func sortedEdges(edges map[parv.EdgeKey]uint64) []parv.EdgeKey {
	keys := make([]parv.EdgeKey, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Caller != keys[j].Caller {
			return keys[i].Caller < keys[j].Caller
		}
		return keys[i].Callee < keys[j].Callee
	})
	return keys
}

// MeanProfile renders the aggregate as a per-run mean profile — the form
// the analyzer consumes. Dividing by the run count (round to nearest)
// keeps the counts on the scale of one run, so the economic filter
// thresholds (minimum single-node weight) mean the same thing they mean
// for a single training run, and a fleet of identical runs aggregates to
// exactly the profile one run produces.
func (a *Aggregate) MeanProfile() *parv.Profile {
	runs := a.Runs
	if runs == 0 {
		runs = 1
	}
	edges := make(map[parv.EdgeKey]uint64, len(a.Edges))
	for k, n := range a.Edges {
		m := (n + runs/2) / runs
		if m == 0 && n > 0 {
			m = 1
		}
		edges[k] = m
	}
	return &parv.Profile{Edges: edges}
}

// profileHash digests a profile's edge counts in caller, then callee
// order. The daemon's request keys carry the digest of the mean profile a
// retrained build reads, so aggregates with one mean share results.
func profileHash(p *parv.Profile) string {
	h := sha256.New()
	for _, k := range sortedEdges(p.Edges) {
		fmt.Fprintf(h, "%s\x00%s\x00%d|", k.Caller, k.Callee, p.Edges[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Encode serializes the aggregate as a profagg-snapshot — the persisted
// form living next to the program's incremental build state.
func (a *Aggregate) Encode() []byte {
	e := wire.NewEncoder(snapshotKind, snapshotVersion)
	e.Str(a.Fingerprint)
	e.Str(a.Program)
	e.Str(a.DirectiveHash)
	e.U(a.Runs)
	e.U(a.Records)
	e.Bool(a.Retrained)
	keys := sortedEdges(a.Edges)
	e.U(uint64(len(keys)))
	for _, k := range keys {
		e.Str(k.Caller)
		e.Str(k.Callee)
		e.U(a.Edges[k])
	}
	return e.Finish()
}

// DecodeAggregate parses one snapshot; zero runs is an error.
func DecodeAggregate(data []byte) (*Aggregate, error) {
	d, err := wire.NewDecoder(data, snapshotKind, snapshotVersion)
	if err != nil {
		return nil, err
	}
	a := &Aggregate{
		Fingerprint:   d.Str(),
		Program:       d.Str(),
		DirectiveHash: d.Str(),
		Runs:          d.U(),
		Records:       d.U(),
		Retrained:     d.Bool(),
	}
	n := d.Count(3)
	a.Edges = make(map[parv.EdgeKey]uint64, n)
	for i := 0; i < n; i++ {
		caller := d.Str()
		callee := d.Str()
		a.Edges[parv.EdgeKey{Caller: caller, Callee: callee}] = d.U()
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if a.Runs == 0 {
		return nil, fmt.Errorf("profagg: snapshot carries zero runs")
	}
	return a, nil
}
