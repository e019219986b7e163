// The profiles scenario: a scripted fleet lifecycle against a live
// daemon, the harness behind BENCH_profagg.json and the profagg-smoke CI
// job.
//
//	ipra-loadgen -addr unix:/tmp/ipra.sock \
//	    -generations 2 -gen-runs 4 -label profagg-fleet -o BENCH_profagg.json
//
// The scenario: build the program under a profiled configuration (the
// daemon trains and registers a drift model), run the served binary on
// the simulator and post the measured counts back as stable fleet
// generations (none may trigger a re-analysis), then post one
// generation synthesized under a phase-shifted distribution heavy enough
// to move the aggregate mean (exactly one re-analysis must fire). The
// retrained executable, the aggregate snapshot, and the program sources
// are written out so CI can reproduce the daemon's bytes with a clean
// local build. Any protocol violation — a stable generation that drifts,
// a shift that does not, a re-analysis count other than one — exits
// nonzero. Drift is exact, so the scenario needs a program whose shift
// moves a directive: seed 5, the default, does; under B, seeds 1, 2 and 4
// do not.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ipra/internal/parv"
	"ipra/internal/profagg"
	"ipra/internal/progen"
	"ipra/internal/served"
)

type profilesParams struct {
	addr        string
	config      string
	strategy    string
	pcfg        progen.Config
	mods        []progen.Module
	label       string
	out         string
	generations int
	genRuns     uint64
	exe         string
	snapOut     string
	srcOut      string
}

// profilesReport is ipra-loadgen's JSON output.
type profilesReport struct {
	Label   string        `json:"label,omitempty"`
	Config  string        `json:"config"`
	Program progen.Config `json:"program"`

	StableGenerations int    `json:"stableGenerations"`
	RunsPerGeneration uint64 `json:"runsPerGeneration"`

	// Drift summarizes the daemon's profagg counter deltas over the
	// scenario: checks run, drift detections, re-analyses triggered, and
	// the re-analysis wall time.
	Drift struct {
		Checks       int64   `json:"checks"`
		Detected     int64   `json:"detected"`
		Reanalyses   int64   `json:"reanalyses"`
		ReanalysisMS float64 `json:"reanalysisMs"`
	} `json:"drift"`

	// AvoidedReanalyses counts the stable generations a naive
	// retrain-on-every-ingest policy would have rebuilt for; SavedMS
	// prices them at the measured re-analysis cost.
	AvoidedReanalyses int     `json:"avoidedReanalyses"`
	SavedMS           float64 `json:"savedMs"`

	// CyclesTrained/CyclesRetrained are the simulator cycle counts of one
	// canonical run of the served binary before and after the
	// drift-triggered re-analysis; the delta is what the new allocation
	// costs or saves on the measured workload.
	CyclesTrained   uint64 `json:"cyclesTrained"`
	CyclesRetrained uint64 `json:"cyclesRetrained"`
	CyclesDelta     int64  `json:"cyclesDelta"`

	DirectiveHashTrained   string  `json:"directiveHashTrained"`
	DirectiveHashRetrained string  `json:"directiveHashRetrained"`
	AggregateRuns          uint64  `json:"aggregateRuns"`
	WallSec                float64 `json:"wallSec"`
}

// runOnce executes a served executable once on the simulator, as mvm
// does, with edge profiling and returns the measured profile and cycles.
func runOnce(exe []byte) (*parv.Profile, uint64, error) {
	decoded, err := parv.DecodeExecutable(exe)
	if err != nil {
		return nil, 0, fmt.Errorf("decode executable: %w", err)
	}
	vm := parv.NewVM(decoded)
	vm.ProfileEdges = true
	if _, err := vm.Run(0); err != nil {
		return nil, 0, fmt.Errorf("simulator run: %w", err)
	}
	return vm.Profile(), vm.Stats.Cycles, nil
}

func runProfiles(p profilesParams) error {
	if p.generations < 1 {
		return fmt.Errorf("-generations must be at least 1")
	}
	if p.genRuns < 1 {
		return fmt.Errorf("-gen-runs must be at least 1")
	}
	client, err := served.Dial(p.addr)
	if err != nil {
		return err
	}
	client.Retries = 8
	ctx := context.Background()
	if err := client.WaitReady(ctx, 30*time.Second); err != nil {
		return err
	}

	srcs := make([]served.Source, len(p.mods))
	for i, m := range p.mods {
		srcs[i] = served.Source{Name: m.Name, Text: m.Text}
	}
	req := &served.BuildRequest{Config: p.config, Strategy: p.strategy, Sources: srcs}
	program := req.ProgramKey()

	before, err := client.Stats(ctx)
	if err != nil {
		return err
	}
	start := time.Now()

	trained, err := client.Build(ctx, req)
	if err != nil {
		return fmt.Errorf("training build: %w", err)
	}

	// The fleet: run the served binary, stream the measured counts back
	// in stable generations. None of these may trigger a re-analysis.
	stableProf, cyclesTrained, err := runOnce(trained.Exe)
	if err != nil {
		return err
	}
	// Generations carry the toolchain fingerprint the daemon stamps on
	// its state, or they are rejected.
	fingerprint := before.Fingerprint
	for gen := 0; gen < p.generations; gen++ {
		stable := profagg.NewAggregate(fingerprint, program, trained.DirectiveHash)
		stable.AddRuns(stableProf, p.genRuns)
		ir, err := client.IngestProfile(ctx, stable.Encode())
		if err != nil {
			return fmt.Errorf("stable generation %d: %w", gen, err)
		}
		if !ir.Accepted || !ir.ModelReady {
			return fmt.Errorf("stable generation %d not accepted: %+v", gen, ir)
		}
		if ir.Drifted || ir.Reanalyzed {
			return fmt.Errorf("protocol violation: stable generation %d triggered a re-analysis (%+v)", gen, ir)
		}
	}

	// The workload shift: one generation synthesized under the rotated
	// hot set, weighted to dominate the aggregate mean.
	shifted := profagg.NewAggregate(fingerprint, program, trained.DirectiveHash)
	shifted.AddRuns(progen.SynthesizeProfile(p.pcfg, 1), 8*uint64(p.generations)*p.genRuns)
	ir, err := client.IngestProfile(ctx, shifted.Encode())
	if err != nil {
		return fmt.Errorf("shifted generation: %w", err)
	}
	if !ir.Accepted {
		return fmt.Errorf("shifted generation rejected: %+v", ir)
	}
	if !ir.Drifted || !ir.Reanalyzed {
		return fmt.Errorf("protocol violation: workload shift did not trigger a re-analysis (%+v)", ir)
	}

	// The daemon now serves the retrained allocation for this program.
	retrained, err := client.Build(ctx, req)
	if err != nil {
		return fmt.Errorf("post-retrain build: %w", err)
	}
	_, cyclesRetrained, err := runOnce(retrained.Exe)
	if err != nil {
		return err
	}
	snap, err := client.ProfileSnapshot(ctx, program)
	if err != nil {
		return fmt.Errorf("aggregate snapshot: %w", err)
	}
	agg, err := profagg.DecodeAggregate(snap)
	if err != nil {
		return fmt.Errorf("decode snapshot: %w", err)
	}

	after, err := client.Stats(ctx)
	if err != nil {
		return err
	}
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	if n := delta("profagg.reanalyses"); n != 1 {
		return fmt.Errorf("protocol violation: %d re-analyses over the scenario, want exactly 1", n)
	}

	rep := profilesReport{
		Label: p.label, Config: p.config, Program: p.pcfg,
		StableGenerations: p.generations, RunsPerGeneration: p.genRuns,
		CyclesTrained:          cyclesTrained,
		CyclesRetrained:        cyclesRetrained,
		CyclesDelta:            int64(cyclesTrained) - int64(cyclesRetrained),
		DirectiveHashTrained:   trained.DirectiveHash,
		DirectiveHashRetrained: ir.DirectiveHash,
		AggregateRuns:          agg.Runs,
		WallSec:                time.Since(start).Seconds(),
	}
	rep.Drift.Checks = delta("profagg.drift_checks")
	rep.Drift.Detected = delta("profagg.drift_detected")
	rep.Drift.Reanalyses = delta("profagg.reanalyses")
	rep.Drift.ReanalysisMS = float64(delta("profagg.reanalysis_ms"))
	rep.AvoidedReanalyses = p.generations
	rep.SavedMS = float64(p.generations) * rep.Drift.ReanalysisMS

	if p.exe != "" {
		if err := os.WriteFile(p.exe, retrained.Exe, 0o644); err != nil {
			return err
		}
	}
	if p.snapOut != "" {
		if err := os.WriteFile(p.snapOut, snap, 0o644); err != nil {
			return err
		}
	}
	if p.srcOut != "" {
		if err := os.MkdirAll(p.srcOut, 0o755); err != nil {
			return err
		}
		for _, m := range p.mods {
			if err := os.WriteFile(filepath.Join(p.srcOut, m.Name), []byte(m.Text), 0o644); err != nil {
				return err
			}
		}
	}

	w := os.Stdout
	if p.out != "" {
		f, err := os.Create(p.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&rep)
}
