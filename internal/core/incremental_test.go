package core

import (
	"bytes"
	"context"
	"testing"

	"ipra/internal/progen"
	"ipra/internal/summary"
	"ipra/internal/verify"
	"ipra/internal/webs"
)

// incrementalConfigs are the analyzer shapes of the build presets A–F
// (profiles excluded: attaching one only forces the count stage, which
// the frequency edits below exercise anyway).
func incrementalConfigs() map[string]Options {
	spillOnly := Options{SpillMotion: true, Promotion: PromoteNone}
	coloring := DefaultOptions()
	greedy := DefaultOptions()
	greedy.Promotion = PromoteGreedy
	blanket := DefaultOptions()
	blanket.Promotion = PromoteBlanket
	return map[string]Options{
		"spill-only": spillOnly,
		"coloring":   coloring,
		"greedy":     greedy,
		"blanket":    blanket,
	}
}

// diffModules names the modules whose summaries differ between two
// versions of the program (by pointer: the mutator shares unedited ones).
func diffModules(before, after []*summary.ModuleSummary) []string {
	var out []string
	for i := range after {
		if before[i] != after[i] {
			out = append(out, after[i].Module)
		}
	}
	return out
}

// TestIncrementalMatchesClean drives a chain of edits of every kind over
// a generated program and asserts, at every step and for every promotion
// strategy, that incremental re-analysis produces a database byte-identical
// to a clean analysis of the same summaries, and that the independent
// verifier stays clean.
func TestIncrementalMatchesClean(t *testing.T) {
	cfg, err := progen.Preset("small")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for name, opt := range incrementalConfigs() {
		opt := opt
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sums := progen.GenerateSummaries(cfg)
			res, err := Analyze(ctx, sums, opt)
			if err != nil {
				t.Fatal(err)
			}
			st := NewState(res, sums, opt)
			if r := st.Unsupported(); r != "" {
				t.Fatalf("state unsupported: %s", r)
			}

			seed := int64(1)
			for round := 0; round < 2; round++ {
				for _, kind := range progen.EditKinds() {
					seed++
					mut, desc := progen.MutateSummaries(cfg, sums, seed, kind)
					dirty := diffModules(sums, mut)

					clean, err := Analyze(ctx, mut, opt)
					if err != nil {
						t.Fatalf("%s: clean analyze: %v", desc, err)
					}
					inc, st2, rs, err := AnalyzeIncremental(ctx, mut, opt, st, dirty)
					if err != nil {
						t.Fatalf("%s: incremental analyze: %v", desc, err)
					}
					if got, want := inc.DB.Hash(), clean.DB.Hash(); got != want {
						t.Fatalf("%s: database diverged (incremental %s, clean %s; reuse=%+v)", desc, got, want, rs)
					}
					if inc.Stats != clean.Stats {
						t.Errorf("%s: stats diverged (incremental %+v, clean %+v)", desc, inc.Stats, clean.Stats)
					}
					if v := verify.Check(inc.Graph, inc.Sets, inc.DB); len(v) > 0 {
						t.Fatalf("%s: verifier found %d violations, first: %v", desc, len(v), v[0])
					}

					switch kind {
					case progen.EditNoop:
						if rs.Fallback != "" || rs.WebsRebuilt != 0 {
							t.Errorf("%s: expected full reuse, got %+v", desc, rs)
						}
					case progen.EditBody:
						if rs.Fallback != "" {
							t.Errorf("%s: unexpected fallback %q", desc, rs.Fallback)
						}
						if rs.WebsReused == 0 {
							t.Errorf("%s: expected web reuse, got %+v", desc, rs)
						}
					case progen.EditCall, progen.EditCycle:
						if rs.Fallback != callStructureChanged {
							t.Errorf("%s: fallback %q, want %q", desc, rs.Fallback, callStructureChanged)
						}
					}

					sums, st = mut, st2
				}
			}
		})
	}
}

// callStructureChanged is the declared fallback of every edit that changes
// a caller's callees, its indirect fan-out, or the address-taken set.
const callStructureChanged = "call structure changed"

// TestIncrementalStateRoundTrip runs one edit through an encode/decode
// cycle of the analyzer state — the build-directory path — and asserts
// byte-identity against a clean analysis.
func TestIncrementalStateRoundTrip(t *testing.T) {
	cfg, err := progen.Preset("small")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opt := DefaultOptions()
	sums := progen.GenerateSummaries(cfg)
	res, err := Analyze(ctx, sums, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(res, sums, opt)

	for _, kind := range []progen.EditKind{progen.EditNoop, progen.EditBody, progen.EditCall} {
		data := st.Encode()
		decoded, err := DecodeState(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", kind, err)
		}

		mut, desc := progen.MutateSummaries(cfg, sums, 7, kind)
		dirty := diffModules(sums, mut)
		clean, err := Analyze(ctx, mut, opt)
		if err != nil {
			t.Fatal(err)
		}
		inc, st2, rs, err := AnalyzeIncremental(ctx, mut, opt, decoded, dirty)
		if err != nil {
			t.Fatalf("%s: incremental analyze: %v", desc, err)
		}
		want := ""
		if kind == progen.EditCall {
			want = callStructureChanged
		}
		if rs.Fallback != want {
			t.Errorf("%s: fallback %q after round trip, want %q", desc, rs.Fallback, want)
		}
		if got, want := inc.DB.Hash(), clean.DB.Hash(); got != want {
			t.Fatalf("%s: database diverged after round trip (incremental %s, clean %s)", desc, got, want)
		}
		if kind == progen.EditNoop && rs.WebsRebuilt != 0 {
			t.Errorf("%s: expected zero rebuilt webs, got %+v", desc, rs)
		}
		// A second encode of the refreshed state must itself decode.
		if _, err := DecodeState(st2.Encode()); err != nil {
			t.Fatalf("%s: re-encode: %v", desc, err)
		}
	}
}

// TestFallbackStateMatchesNewState guards the fallback's stamp reuse: the
// state a structural fallback returns keeps the previous stamps of the
// modules the edit did not touch, and must encode exactly as a state built
// from scratch over the same summaries.
func TestFallbackStateMatchesNewState(t *testing.T) {
	cfg, err := progen.Preset("small")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opt := DefaultOptions()
	sums := progen.GenerateSummaries(cfg)
	res, err := Analyze(ctx, sums, opt)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeState(NewState(res, sums, opt).Encode())
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []progen.EditKind{progen.EditCall, progen.EditCycle} {
		mut, desc := progen.MutateSummaries(cfg, sums, 3, kind)
		_, st, rs, err := AnalyzeIncremental(ctx, mut, opt, decoded, diffModules(sums, mut))
		if err != nil {
			t.Fatal(err)
		}
		if rs.Fallback != callStructureChanged {
			t.Fatalf("%s: fallback %q, want %q", desc, rs.Fallback, callStructureChanged)
		}
		clean, err := Analyze(ctx, mut, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.Encode(), NewState(clean, mut, opt).Encode()) {
			t.Errorf("%s: fallback state encodes differently from NewState over the same summaries", desc)
		}
	}
}

// TestDecodeStateRejectsBadIndexes corrupts one node or variable index in
// an otherwise valid state per case: each must be a decode error, never a
// state that panics the next analysis.
func TestDecodeStateRejectsBadIndexes(t *testing.T) {
	cfg, err := progen.Preset("small")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opt := DefaultOptions()
	sums := progen.GenerateSummaries(cfg)
	res, err := Analyze(ctx, sums, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters.Clusters) == 0 {
		t.Fatal("program has no clusters to corrupt")
	}
	var web *webs.Web
	for _, w := range res.Webs {
		if len(w.Entries) > 0 {
			web = w
			break
		}
	}
	if web == nil {
		t.Fatal("program has no web with entries to corrupt")
	}
	cases := []struct {
		name    string
		corrupt func(st *State) func()
	}{
		{"cluster member", func(st *State) func() {
			c := st.clusters.Clusters[0]
			saved := c.Members
			c.Members = append(append([]int(nil), saved...), 1<<20)
			return func() { c.Members = saved }
		}},
		{"cluster root", func(st *State) func() {
			c := st.clusters.Clusters[0]
			saved := c.Root
			c.Root = 1 << 20
			return func() { c.Root = saved }
		}},
		{"member root", func(st *State) func() {
			st.clusters.MemberRoot[1<<20] = st.clusters.Clusters[0].Root
			return func() { delete(st.clusters.MemberRoot, 1<<20) }
		}},
		{"web entry", func(st *State) func() {
			saved := web.Entries
			web.Entries = append(append([]int(nil), saved...), 1<<20)
			return func() { web.Entries = saved }
		}},
		{"scc id", func(st *State) func() {
			nd := st.g.Nodes[0]
			saved := nd.SCC
			nd.SCC = 1 << 40
			return func() { nd.SCC = saved }
		}},
		{"idom", func(st *State) func() {
			nd := st.g.Nodes[len(st.g.Nodes)-1]
			saved := nd.IDom
			nd.IDom = 1 << 20
			return func() { nd.IDom = saved }
		}},
		{"idom cycle", func(st *State) func() {
			nd := st.g.Nodes[0]
			saved := nd.IDom
			nd.IDom = 0
			return func() { nd.IDom = saved }
		}},
		{"variable bit", func(st *State) func() {
			row := st.sets.LRef[0]
			saved := row[len(row)-1]
			row[len(row)-1] |= 1 << 63
			return func() { row[len(row)-1] = saved }
		}},
	}
	st := NewState(res, sums, opt)
	for _, tc := range cases {
		restore := tc.corrupt(st)
		data := st.Encode()
		restore()
		if _, err := DecodeState(data); err == nil {
			t.Errorf("%s: corrupt state decoded without error", tc.name)
		}
	}
	if _, err := DecodeState(st.Encode()); err != nil {
		t.Fatalf("restored state no longer decodes: %v", err)
	}
}

// TestIncrementalFallbackGuards exercises the explicit fallback paths.
func TestIncrementalFallbackGuards(t *testing.T) {
	cfg, err := progen.Preset("small")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opt := DefaultOptions()
	sums := progen.GenerateSummaries(cfg)
	res, err := Analyze(ctx, sums, opt)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		prev func() *State
		opt  Options
		sums func() []*summary.ModuleSummary
	}{
		{name: "nil state", prev: func() *State { return nil }, opt: opt, sums: func() []*summary.ModuleSummary { return sums }},
		{name: "options changed", prev: func() *State { return NewState(res, sums, opt) },
			opt:  func() Options { o := opt; o.ColoringRegs = 4; return o }(),
			sums: func() []*summary.ModuleSummary { return sums }},
		{name: "module set changed", prev: func() *State { return NewState(res, sums, opt) }, opt: opt,
			sums: func() []*summary.ModuleSummary { return sums[:len(sums)-1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.sums()
			clean, err := Analyze(ctx, s, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			inc, _, rs, err := AnalyzeIncremental(ctx, s, tc.opt, tc.prev(), diffModules(sums[:len(s)], s))
			if err != nil {
				t.Fatal(err)
			}
			if rs.Fallback == "" {
				t.Errorf("expected fallback, got %+v", rs)
			}
			if inc.DB.Hash() != clean.DB.Hash() {
				t.Errorf("fallback database diverged")
			}
		})
	}
}

// TestOptionsKeyDistinguishes ensures the option fingerprint separates
// every output-shaping field.
func TestOptionsKeyDistinguishes(t *testing.T) {
	base := DefaultOptions()
	variants := []func(*Options){
		func(o *Options) { o.SpillMotion = false },
		func(o *Options) { o.Promotion = PromoteGreedy },
		func(o *Options) { o.ColoringRegs = 4 },
		func(o *Options) { o.BlanketCount = 3 },
		func(o *Options) { o.PartialProgram = true },
		func(o *Options) { o.MergeWebs = true },
		func(o *Options) { o.CallerSavesPreallocation = true },
	}
	seenKeys := map[string]int{optionsKey(base): -1}
	for i, v := range variants {
		o := base
		v(&o)
		k := optionsKey(o)
		if j, dup := seenKeys[k]; dup {
			t.Errorf("variant %d collides with %d: %s", i, j, k)
		}
		seenKeys[k] = i
	}
	// Jobs must NOT change the key: output is identical at any setting.
	o := base
	o.Jobs = 7
	if optionsKey(o) != optionsKey(base) {
		t.Error("Jobs changed the options key")
	}
}
