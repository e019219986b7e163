package profagg

import (
	"context"
	"reflect"
	"testing"

	"ipra"
	"ipra/internal/core"
	"ipra/internal/progen"
)

// profiledSnapshots returns the bytes a daemon takes in for a profiled
// build of a small generated program: one generation of its training
// profile, as POST /v1/profile receives it, and an aggregate that merged
// two such generations and retrained, as the daemon reads it back from
// disk.
func profiledSnapshots(f *testing.F) (generation, merged []byte) {
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
	gen := NewAggregate(ipra.ToolchainFingerprint(), "0123456789abcdef", res.Program.DB.Hash())
	gen.AddRuns(res.Train.Profile, 4)
	agg := NewAggregate(gen.Fingerprint, gen.Program, gen.DirectiveHash)
	agg.Merge(gen)
	agg.Merge(gen)
	agg.Retrained = true
	return gen.Encode(), agg.Encode()
}

// decodedRoundTrip decodes data as a snapshot and returns the aggregate,
// or nil when the bytes are rejected. An accepted aggregate must
// re-encode to one that decodes equal.
func decodedRoundTrip(t *testing.T, data []byte) *Aggregate {
	t.Helper()
	agg, err := DecodeAggregate(data)
	if err != nil {
		return nil
	}
	again, err := DecodeAggregate(agg.Encode())
	if err != nil {
		t.Fatalf("re-decode of an accepted aggregate failed: %v", err)
	}
	if !reflect.DeepEqual(again, agg) {
		t.Fatal("an accepted aggregate does not round-trip")
	}
	return agg
}

// FuzzProfileRecordDecode: any bytes posted to /v1/profile as a fleet
// record (one generation's snapshot) decode to an aggregate or an error,
// never a panic, and a store that registered the program's drift model
// merges an accepted one and checks it for drift without a panic. The
// model is trained on the record's own mean, which the merge into an
// empty aggregate reproduces, so the check answers without an analysis.
func FuzzProfileRecordDecode(f *testing.F) {
	generation, merged := profiledSnapshots(f)
	f.Add(generation)
	f.Add(generation[:len(generation)/2])
	f.Add(merged)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := decodedRoundTrip(t, data)
		if rec == nil {
			return
		}
		s := New(Options{Fingerprint: rec.Fingerprint})
		s.Register(rec.Program, NewDriftModel(nil, core.Options{Profile: rec.MeanProfile()}, rec.DirectiveHash), nil)
		res, err := s.Ingest(rec)
		switch {
		case rec.Program == "":
			if err == nil {
				t.Fatal("a record without a program key was ingested")
			}
		case err != nil || !res.Accepted || !res.ModelReady || res.Drifted || res.Runs != rec.Runs || res.Records != rec.Records:
			t.Fatalf("a record against its own model: %+v, %v; want accepted without drift", res, err)
		}
	})
}

// FuzzAggregateDecode: any bytes read back as a persisted aggregate decode
// to an aggregate or an error, never a panic, and an accepted one yields
// its mean profile and the profile's hash without a panic.
func FuzzAggregateDecode(f *testing.F) {
	generation, merged := profiledSnapshots(f)
	f.Add(merged)
	f.Add(merged[:len(merged)/2])
	f.Add(generation)
	f.Fuzz(func(t *testing.T, data []byte) {
		if agg := decodedRoundTrip(t, data); agg != nil {
			profileHash(agg.MeanProfile())
		}
	})
}
