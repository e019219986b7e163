package ipra

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipra/internal/progen"
	"ipra/internal/telemetry"
)

// TestPhase2ReusesProcedureCode replays a seeded chain of progen edits of
// every kind into one build directory under configurations C, D, and C
// with caller-saves preallocation (whose clobber contracts give callees'
// keys content), with one and two workers. Version v is progen.Mutate of
// the base program, as in the benchmark's edit loop, so consecutive
// versions differ by up to two edits. Every version's executable must
// equal a store-less build's; the outcome, the counters and the phase-2
// module spans must agree that recompiled and reused procedures add up to
// the procedures of the phase-2-recompiled modules; and at least one build
// must recompile fewer procedures than its recompiled modules hold: a
// module whose keys alone moved keeps the stored code of its other
// procedures. The first such build is repeated over a copy of the
// directory as it stood before, with a byte of a salvaged module's stored
// object flipped: that module's phase 2 must run whole, with the same
// executable. The -explain text of every build, in order, must equal the
// configuration's golden under testdata/phase2_explain at both worker
// counts: it pins every module, procedure and reason the key diff decides
// (`go test -run TestPhase2ReusesProcedureCode -update .` re-pins it after
// an intentional change of those decisions).
func TestPhase2ReusesProcedureCode(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-edit replay")
	}
	pcfg := progen.Config{Seed: 7, Modules: 6, ProcsPerModule: 12, Globals: 64,
		SubsystemSize: 5, Recursion: true, Statics: true, LoopIters: 1}
	base := progen.Generate(pcfg)
	kinds := progen.EditKinds()
	const edits = 16
	for _, name := range []string{"C", "D", "C+prealloc"} {
		for _, jobs := range []int{1, 2} {
			cfg := MustPreset(strings.TrimSuffix(name, "+prealloc"))
			cfg.Analyzer.CallerSavesPreallocation = strings.HasSuffix(name, "+prealloc")
			cfg.Jobs = jobs
			t.Run(fmt.Sprintf("%s/jobs=%d", name, jobs), func(t *testing.T) {
				t.Parallel()
				ctx := context.Background()
				dir, before := t.TempDir(), ""
				salvages := 0
				var decisions bytes.Buffer
				for v := 0; v <= edits; v++ {
					mods, desc := base, "base"
					if v > 0 {
						mods, desc = progen.Mutate(pcfg, base, 1000+int64(v), kinds[v%len(kinds)])
					}
					label := fmt.Sprintf("v%d %s", v, desc)
					src := progenSources(mods)
					clean, err := Build(ctx, src, cfg)
					if err != nil {
						t.Fatalf("%s: store-less build: %v", label, err)
					}
					want := canonicalExe(t, clean.Exe)
					if salvages == 0 {
						before = t.TempDir()
						copyDir(t, dir, before)
					}
					var explain bytes.Buffer
					res, err := Build(ctx, src, cfg, WithBuildDir(dir), WithStderr(&explain), WithTelemetry(telemetry.New()))
					if err != nil {
						t.Fatalf("%s: incremental build: %v", label, err)
					}
					if !bytes.Equal(canonicalExe(t, res.Exe), want) {
						t.Fatalf("%s: incremental executable differs from a store-less build\n%s", label, &explain)
					}
					fmt.Fprintf(&decisions, "== %s\n%s", label, &explain)
					out, procs := res.Incremental, 0
					salvaged := ""
					for i, a := range out.Actions {
						if a.Procs != len(res.Summaries[i].Procs) {
							t.Errorf("%s: %s: Procs = %d, its summary holds %d", label, a.Module, a.Procs, len(res.Summaries[i].Procs))
						}
						switch {
						case !a.Phase2Rebuilt && a.ProcsRecompiled != 0:
							t.Errorf("%s: %s: a reused module recompiled %d procedures", label, a.Module, a.ProcsRecompiled)
						case a.Phase2Rebuilt && a.ProcsRecompiled < a.Procs:
							line := fmt.Sprintf("; phase 2 recompiled (%s), %d/%d procedures\n", a.Phase2Reason, a.ProcsRecompiled, a.Procs)
							if !strings.Contains(explain.String(), a.Module+": phase 1 ") || !strings.Contains(explain.String(), line) {
								t.Errorf("%s: explain lacks %s's %q:\n%s", label, a.Module, line, &explain)
							}
							salvaged = a.Module
						}
						if a.Phase2Rebuilt {
							procs += a.Procs
						}
					}
					if out.ProcsRecompiled+out.ProcsReused != procs {
						t.Errorf("%s: %d recompiled + %d reused procedures, the recompiled modules hold %d",
							label, out.ProcsRecompiled, out.ProcsReused, procs)
					}
					c := res.Report.Counters
					spanProcs, spanRecompiled := phase2ProcSpans(res.Report)
					if c["incremental.phase2_procs_recompiled"] != int64(out.ProcsRecompiled) ||
						c["incremental.phase2_procs_reused"] != int64(out.ProcsReused) ||
						spanProcs != int64(procs) || spanRecompiled != int64(out.ProcsRecompiled) {
						t.Errorf("%s: counters %d recompiled + %d reused, phase-2 module spans %d of %d; the outcome has %d + %d",
							label, c["incremental.phase2_procs_recompiled"], c["incremental.phase2_procs_reused"],
							spanRecompiled, spanProcs, out.ProcsRecompiled, out.ProcsReused)
					}
					if salvaged == "" {
						continue
					}
					if salvages++; salvages == 1 {
						flipSalvagedObject(t, before, salvaged, src, cfg, want)
					}
				}
				t.Logf("%d of %d edits kept stored procedure code", salvages, edits)
				if salvages == 0 {
					t.Error("no build recompiled fewer procedures than its recompiled modules hold")
				}
				checkExplainGolden(t, name, jobs, decisions.Bytes())
			})
		}
	}
}

// checkExplainGolden compares the replay's explain text under the named
// configuration with its golden. Under -update the one-worker run rewrites
// the golden and the two-worker run, which may race it, compares nothing.
func checkExplainGolden(t *testing.T, name string, jobs int, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "phase2_explain", name+".txt")
	if *updateGoldens {
		if jobs == 1 {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("explain text differs from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("explain text differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// flipSalvagedObject rebuilds src over dir, a copy of a build directory as
// it stood before a build that salvaged module's stored object, with one
// byte of that object flipped. The object no longer matches its name, so
// the module's phase 2 must run whole and the executable still equal want.
func flipSalvagedObject(t *testing.T, dir, module string, src []Source, cfg Config, want []byte) {
	t.Helper()
	objs, err := filepath.Glob(filepath.Join(dir, "obj-"+strings.TrimSuffix(module, ".mc")+"_mc-*.wire"))
	if err != nil || len(objs) != 1 {
		t.Fatalf("%s: stored objects %v (%v), want one", module, objs, err)
	}
	data, err := os.ReadFile(objs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(objs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Build(context.Background(), src, cfg, WithBuildDir(dir))
	if err != nil {
		t.Fatalf("flipped %s: %v", objs[0], err)
	}
	if !bytes.Equal(canonicalExe(t, res.Exe), want) {
		t.Errorf("flipped %s: executable differs from a store-less build", objs[0])
	}
	for _, a := range res.Incremental.Actions {
		if a.Module == module && (a.ProcsRecompiled != a.Procs || !strings.HasSuffix(a.Phase2Reason, "; stored object unreadable")) {
			t.Errorf("flipped %s: %s recompiled %d/%d procedures (%s), want a whole-module phase 2",
				objs[0], module, a.ProcsRecompiled, a.Procs, a.Phase2Reason)
		}
	}
}

// phase2ProcSpans sums the procs and procs_recompiled attributes of the
// phase-2 module spans of a traced build.
func phase2ProcSpans(rep *telemetry.Report) (procs, recompiled int64) {
	var walk func(ns []*telemetry.ReportSpan, inPhase bool)
	walk = func(ns []*telemetry.ReportSpan, inPhase bool) {
		for _, n := range ns {
			if inPhase && n.Name == "module" {
				p, _ := n.Attrs["procs"].(int64)
				r, _ := n.Attrs["procs_recompiled"].(int64)
				procs, recompiled = procs+p, recompiled+r
				continue
			}
			walk(n.Children, inPhase || n.Name == "phase2")
		}
	}
	walk(rep.Spans, false)
	return procs, recompiled
}

// copyDir copies the regular files of directory src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
