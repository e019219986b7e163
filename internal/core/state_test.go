package core

import (
	"bytes"
	"context"
	"testing"

	"ipra/internal/progen"
	"ipra/internal/webs"
)

// TestStateRoundTrip: a state decodes from its encoding and re-encodes to
// the same bytes, for every promotion mode's analysis.
func TestStateRoundTrip(t *testing.T) {
	cfg, err := progen.Preset("small")
	if err != nil {
		t.Fatal(err)
	}
	sums := progen.GenerateSummaries(cfg)
	for _, mode := range []PromotionMode{PromoteNone, PromoteColoring, PromoteGreedy, PromoteBlanket} {
		opt := DefaultOptions()
		opt.Promotion = mode
		res, err := Analyze(context.Background(), sums, opt)
		if err != nil {
			t.Fatal(err)
		}
		data := NewState(res, sums, opt).Encode()
		decoded, err := DecodeState(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", mode, err)
		}
		if !bytes.Equal(decoded.Encode(), data) {
			t.Errorf("%s: a decoded state re-encodes to other bytes", mode)
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

// TestOptionsKeyDistinguishes ensures the option fingerprint separates
// every output-shaping field.
func TestOptionsKeyDistinguishes(t *testing.T) {
	base := DefaultOptions()
	variants := []func(*Options){
		func(o *Options) { o.SpillMotion = false },
		func(o *Options) { o.Promotion = PromoteGreedy },
		func(o *Options) { o.Promotion = PromoteBlanket },
		func(o *Options) { o.Strategy = StrategyTiling },
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
