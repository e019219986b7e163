package ipra

import (
	"context"
	"os"
	"testing"

	"ipra/internal/core"
	"ipra/internal/summary"
	"ipra/internal/verify"
)

// TestPartialBlanketReproVerifiesClean pins the fix for the
// partial-program blanket-promotion bug with a minimized MiniC module
// (testdata/verify/partial_blanket.mc). Under -partial the synthetic
// `<external>` caller is the only call-graph start; blanket selection
// used to adopt it as a web entry even though it has no compilable body,
// leaving a web phase 2 could never realize. The verifier caught this as
// thousands of "non-entry member has no predecessor inside the web"
// violations; post-fix such webs are dropped, so the static global must
// simply stay unpromoted and the database must verify clean.
func TestPartialBlanketReproVerifiesClean(t *testing.T) {
	text, err := os.ReadFile("testdata/verify/partial_blanket.mc")
	if err != nil {
		t.Fatal(err)
	}
	_, ms, err := Phase1(Source{Name: "partial_blanket.mc", Text: text})
	if err != nil {
		t.Fatal(err)
	}
	sums := []*summary.ModuleSummary{ms}

	opt := core.DefaultOptions()
	opt.PartialProgram = true
	opt.Promotion = core.PromoteBlanket
	res, err := core.Analyze(context.Background(), sums, opt)
	if err != nil {
		t.Fatal(err)
	}

	if vs := verify.Check(res.Graph, res.Sets, res.DB); len(vs) > 0 {
		for _, v := range vs {
			t.Errorf("verifier violation: %s", v)
		}
		t.Fatalf("partial+blanket analysis of the reproducer produced %d violations", len(vs))
	}

	// The only eligible global is reachable solely through exported
	// procedures, i.e. through the record-less external caller; the
	// blanket web over it must have been dropped, not emitted.
	for name, d := range res.DB.Procs {
		for _, p := range d.Promoted {
			if p.Name == "hits" {
				t.Errorf("%s: static global %q promoted to r%d despite unrealizable external entry",
					name, p.Name, p.Reg)
			}
		}
	}
}
