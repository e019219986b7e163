package profagg

import (
	"context"
	"reflect"
	"testing"

	"ipra"
	"ipra/internal/progen"
)

// profiledArtifacts returns the bytes a daemon takes in for a profiled
// build of a small generated program: a fleet record of its training
// profile, as POST /v1/profile receives it, and the snapshot of an
// aggregate that merged it, as the daemon reads it back from disk.
func profiledArtifacts(f *testing.F) (record, snapshot []byte) {
	f.Helper()
	mods := progen.Generate(progen.Config{Seed: 7, Modules: 3, ProcsPerModule: 5, Globals: 12,
		SubsystemSize: 3, Recursion: true, IndirectCalls: true, Statics: true, LoopIters: 1})
	srcs := make([]ipra.Source, len(mods))
	for i, m := range mods {
		srcs[i] = ipra.Source{Name: m.Name, Text: []byte(m.Text)}
	}
	res, err := ipra.Build(context.Background(), srcs, ipra.MustPreset("B"), ipra.WithProfile(5_000_000))
	if err != nil {
		f.Fatal(err)
	}
	rec := NewRecord(ipra.ToolchainFingerprint(), "0123456789abcdef", res.Program.DB.Hash())
	rec.AddRuns(res.Train.Profile, 4)
	agg := NewAggregate(rec.Fingerprint, rec.Program, rec.DirectiveHash)
	agg.Merge(rec)
	agg.Merge(rec)
	agg.Retrained = true
	return rec.Encode(), agg.Encode()
}

// FuzzProfileRecordDecode: any bytes decode to a record or an error,
// never a panic. An accepted record re-encodes to one that decodes equal,
// and a store ingests it without a panic.
func FuzzProfileRecordDecode(f *testing.F) {
	record, snapshot := profiledArtifacts(f)
	f.Add(record)
	f.Add(record[:len(record)/2])
	f.Add(snapshot)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		again, err := DecodeRecord(rec.Encode())
		if err != nil {
			t.Fatalf("re-decode of an accepted record failed: %v", err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatal("an accepted record does not round-trip")
		}
		New(Options{Fingerprint: rec.Fingerprint}).Ingest(rec)
	})
}

// FuzzAggregateDecode: any bytes decode to an aggregate or an error,
// never a panic. An accepted aggregate re-encodes to one that decodes
// equal, and yields its mean profile and hash without a panic.
func FuzzAggregateDecode(f *testing.F) {
	record, snapshot := profiledArtifacts(f)
	f.Add(snapshot)
	f.Add(snapshot[:len(snapshot)/2])
	f.Add(record)
	f.Fuzz(func(t *testing.T, data []byte) {
		agg, err := DecodeAggregate(data)
		if err != nil {
			return
		}
		again, err := DecodeAggregate(agg.Encode())
		if err != nil {
			t.Fatalf("re-decode of an accepted aggregate failed: %v", err)
		}
		if !reflect.DeepEqual(again, agg) {
			t.Fatal("an accepted aggregate does not round-trip")
		}
		agg.MeanProfile()
		agg.Hash()
	})
}
