package core_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"ipra/internal/core"
	"ipra/internal/verify"
)

func TestStrategyRegistry(t *testing.T) {
	names := core.StrategyNames()
	want := []string{core.StrategyPriority, core.StrategyTiling}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("StrategyNames() = %v, want %v", names, want)
	}
	if names[0] != core.DefaultStrategyName {
		t.Errorf("StrategyNames()[0] = %q, want the default %q", names[0], core.DefaultStrategyName)
	}
	for _, name := range names {
		canon, err := core.ResolveStrategy(strings.ToUpper(name))
		if err != nil || canon != name {
			t.Errorf("ResolveStrategy(%q) = %q, %v", strings.ToUpper(name), canon, err)
		}
	}
	if canon, err := core.ResolveStrategy(""); err != nil || canon != core.DefaultStrategyName {
		t.Errorf("ResolveStrategy(\"\") = %q, %v", canon, err)
	}
	// A removed strategy's name fails like any unknown one, listing the
	// table.
	for _, bad := range []string{"bogus", "spill-everywhere"} {
		_, err := core.ResolveStrategy(bad)
		if err == nil {
			t.Errorf("ResolveStrategy(%q) should fail", bad)
			continue
		}
		if !strings.Contains(err.Error(), strings.Join(want, ", ")) {
			t.Errorf("ResolveStrategy(%q) error %q does not list %v", bad, err, want)
		}
	}
}

func TestAnalyzeUnknownStrategy(t *testing.T) {
	opt := core.DefaultOptions()
	opt.Strategy = "bogus"
	if _, err := core.Analyze(context.Background(), twoModuleProgram(), opt); err == nil {
		t.Fatal("Analyze with an unknown strategy should fail")
	}
}

// TestStrategiesVerifierClean runs every strategy over the phase-1
// summaries of a generated program under every promotion mode and checks the
// independent allocation verifier stays clean and the result names the
// strategy that produced it.
func TestStrategiesVerifierClean(t *testing.T) {
	sums := presetSummaries(t, "small")

	modes := []core.PromotionMode{
		core.PromoteNone, core.PromoteColoring, core.PromoteGreedy, core.PromoteBlanket,
	}
	for _, strat := range core.StrategyNames() {
		for _, mode := range modes {
			opt := core.DefaultOptions()
			opt.Strategy = strat
			opt.Promotion = mode
			res, err := core.Analyze(context.Background(), sums, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", strat, mode, err)
			}
			if res.Strategy != strat {
				t.Errorf("%s/%s: result records strategy %q", strat, mode, res.Strategy)
			}
			if vs := verify.Check(res.Graph, res.Sets, res.DB); len(vs) > 0 {
				for _, v := range vs {
					t.Errorf("%s/%s: verify: %s", strat, mode, v)
				}
			}
		}
	}
}
