package ipra

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"ipra/internal/benchprogs"
	"ipra/internal/parv"
)

const simulatorGoldenPath = "testdata/simulator_goldens.json"

// simRecord is everything Tables 4 and 5 and the profiled presets read
// off one simulator run: the program's behaviour, all seven counters and,
// under B and F, the call-edge profile of the training run.
type simRecord struct {
	Exit            int32  `json:"exit"`
	OutputSHA256    string `json:"outputSha256"`
	Instrs          uint64 `json:"instrs"`
	Cycles          uint64 `json:"cycles"`
	Loads           uint64 `json:"loads"`
	Stores          uint64 `json:"stores"`
	SingletonLoads  uint64 `json:"singletonLoads"`
	SingletonStores uint64 `json:"singletonStores"`
	Calls           uint64 `json:"calls"`
	TrainProfile    string `json:"trainProfileSha256,omitempty"`
}

// profileHash hashes a call-edge profile as its edges sorted by caller,
// then callee, one "caller callee count" line each.
func profileHash(p *parv.Profile) string {
	lines := make([]string, 0, len(p.Edges))
	for e, n := range p.Edges {
		lines = append(lines, fmt.Sprintf("%s %s %d\n", e.Caller, e.Callee, n))
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSimulatorGoldens pins the simulator on the paper's evaluation: each
// benchmark analog under L2 and A-F, built by the default strategy, must
// run to the recorded exit code, output and counters, and each training
// run of B and F must produce the recorded profile. The goldens were taken
// from the simulator before its decode-at-load rewrite, which had to leave
// every number unchanged. After an intentional change to the compiler or
// the simulator, refresh with `go test -run 'TestDefaultStrategyGoldens|TestSimulatorGoldens' -update-strategy`.
func TestSimulatorGoldens(t *testing.T) {
	builds := goldenBuilds(t)
	got := make(map[string]simRecord)
	for _, b := range benchprogs.All() {
		for _, name := range PresetNames() {
			key := b.Name + "/" + name
			gb := builds[key]
			res, err := (&Program{Exe: gb.exe}).Run(b.MaxInstrs, false)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			out := sha256.Sum256([]byte(res.Output))
			s := res.Stats
			rec := simRecord{
				Exit: res.Exit, OutputSHA256: hex.EncodeToString(out[:]),
				Instrs: s.Instrs, Cycles: s.Cycles, Loads: s.Loads, Stores: s.Stores,
				SingletonLoads: s.SingletonLoads, SingletonStores: s.SingletonStores,
				Calls: s.Calls,
			}
			if gb.train != nil {
				rec.TrainProfile = profileHash(gb.train.Profile)
			}
			got[key] = rec
		}
	}

	if *updateStrategyGolden {
		writeGoldenJSON(t, simulatorGoldenPath, got)
		return
	}

	data, err := os.ReadFile(simulatorGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-strategy)", err)
	}
	var want map[string]simRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, run produced %d", len(want), len(got))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: no measurement for golden entry", k)
		} else if g != w {
			t.Errorf("%s: simulator record\n got %+v\nwant %+v", k, g, w)
		}
	}
}
