package core_test

import (
	"bytes"
	"context"
	"testing"

	"ipra/internal/core"
	"ipra/internal/webs"
)

// TestStateRoundTrip: a state decodes from its encoding and re-encodes to
// the same bytes, for every promotion mode's analysis.
func TestStateRoundTrip(t *testing.T) {
	sums := presetSummaries(t, "small")
	for _, mode := range []core.PromotionMode{core.PromoteNone, core.PromoteColoring, core.PromoteGreedy, core.PromoteBlanket} {
		opt := core.DefaultOptions()
		opt.Promotion = mode
		res, err := core.Analyze(context.Background(), sums, opt)
		if err != nil {
			t.Fatal(err)
		}
		data := core.NewState(res, sums, opt).Encode()
		decoded, err := core.DecodeState(data)
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
	ctx := context.Background()
	opt := core.DefaultOptions()
	sums := presetSummaries(t, "small")
	res, err := core.Analyze(ctx, sums, opt)
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
	st := core.NewState(res, sums, opt)
	g, sets, cl := st.Artifacts()
	cases := []struct {
		name    string
		corrupt func() func()
	}{
		{"cluster member", func() func() {
			c := cl.Clusters[0]
			saved := c.Members
			c.Members = append(append([]int(nil), saved...), 1<<20)
			return func() { c.Members = saved }
		}},
		{"cluster root", func() func() {
			c := cl.Clusters[0]
			saved := c.Root
			c.Root = 1 << 20
			return func() { c.Root = saved }
		}},
		{"member root", func() func() {
			cl.MemberRoot[1<<20] = cl.Clusters[0].Root
			return func() { delete(cl.MemberRoot, 1<<20) }
		}},
		{"web entry", func() func() {
			saved := web.Entries
			web.Entries = append(append([]int(nil), saved...), 1<<20)
			return func() { web.Entries = saved }
		}},
		{"scc id", func() func() {
			nd := g.Nodes[0]
			saved := nd.SCC
			nd.SCC = 1 << 40
			return func() { nd.SCC = saved }
		}},
		{"idom", func() func() {
			nd := g.Nodes[len(g.Nodes)-1]
			saved := nd.IDom
			nd.IDom = 1 << 20
			return func() { nd.IDom = saved }
		}},
		{"idom cycle", func() func() {
			nd := g.Nodes[0]
			saved := nd.IDom
			nd.IDom = 0
			return func() { nd.IDom = saved }
		}},
		{"variable bit", func() func() {
			row := sets.LRef[0]
			saved := row[len(row)-1]
			row[len(row)-1] |= 1 << 63
			return func() { row[len(row)-1] = saved }
		}},
	}
	for _, tc := range cases {
		restore := tc.corrupt()
		data := st.Encode()
		restore()
		if _, err := core.DecodeState(data); err == nil {
			t.Errorf("%s: corrupt state decoded without error", tc.name)
		}
	}
	if _, err := core.DecodeState(st.Encode()); err != nil {
		t.Fatalf("restored state no longer decodes: %v", err)
	}
}

// TestOptionsKeyDistinguishes ensures the option fingerprint separates
// every output-shaping field.
func TestOptionsKeyDistinguishes(t *testing.T) {
	base := core.DefaultOptions()
	variants := []func(*core.Options){
		func(o *core.Options) { o.SpillMotion = false },
		func(o *core.Options) { o.Promotion = core.PromoteGreedy },
		func(o *core.Options) { o.Promotion = core.PromoteBlanket },
		func(o *core.Options) { o.Strategy = core.StrategyTiling },
		func(o *core.Options) { o.PartialProgram = true },
		func(o *core.Options) { o.MergeWebs = true },
		func(o *core.Options) { o.CallerSavesPreallocation = true },
	}
	seenKeys := map[string]int{core.OptionsKey(base): -1}
	for i, v := range variants {
		o := base
		v(&o)
		k := core.OptionsKey(o)
		if j, dup := seenKeys[k]; dup {
			t.Errorf("variant %d collides with %d: %s", i, j, k)
		}
		seenKeys[k] = i
	}
	// Jobs must NOT change the key: output is identical at any setting.
	o := base
	o.Jobs = 7
	if core.OptionsKey(o) != core.OptionsKey(base) {
		t.Error("Jobs changed the options key")
	}
}
