package ipra

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ipra/internal/benchprogs"
	"ipra/internal/cache"
	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/regs"
	"ipra/internal/summary"
)

// TestTwoPassFileBasedPipeline drives the paper's Figure 1 flow through
// actual files, the way the mcc / ipra-analyze tools do:
//
//	phase 1:  source -> phase-1 record (.p1: summary, then level-1 IR)
//	analyzer: the summaries of all .p1 files -> program database file
//	phase 2:  each .p1's IR + database -> object, in ARBITRARY module order
//	link + run
//
// The point of the paper's organization is that phase 2 is order
// independent and module-at-a-time; this test compiles the modules in
// reverse order from a cold start (files only), then links them in source
// order. The analyzer is Analyze, the step every build runs, so under L2
// and every Table 4 column the executable must equal Build's byte for
// byte; B and F analyze under the profile of a run of their training
// pass's file-flow executable, as mvm -profile records one. Each .p1 file
// must equal the record a build directory stores for its module.
func TestTwoPassFileBasedPipeline(t *testing.T) {
	dhry, err := benchprogs.ByName("dhrystone")
	if err != nil {
		t.Fatal(err)
	}
	programs := []struct {
		name    string
		sources []Source
	}{
		{"total", []Source{
			{Name: "main.mc", Text: []byte(`
extern int total;
int add(int x);
int main() {
	int i;
	for (i = 1; i <= 100; i++) { add(i); }
	return total & 255;
}
`)},
			{Name: "lib.mc", Text: []byte(`
int total;
int add(int x) { total += x; return total; }
`)},
		}},
		{"dhrystone", benchSources(t, dhry)},
	}
	for _, prog := range programs {
		t.Run(prog.name, func(t *testing.T) {
			dir := t.TempDir()
			readFile := func(path string) []byte {
				t.Helper()
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return data
			}

			// ---- Phase 1: write one .p1 file per module.
			var p1Paths []string
			for _, src := range prog.sources {
				m, ms, err := Phase1(src)
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, src.Name+".p1")
				if err := os.WriteFile(path, cache.EncodeEntry(m, ms), 0o644); err != nil {
					t.Fatal(err)
				}
				p1Paths = append(p1Paths, path)
			}

			// fileFlow runs the analyzer on the .p1 files' summaries
			// alone, writes the database, and compiles and links from
			// the files.
			fileFlow := func(cfg Config, profile *parv.Profile) *parv.Executable {
				t.Helper()
				var sums []*summary.ModuleSummary
				for _, p := range p1Paths {
					ms, err := cache.DecodeSummary(readFile(p))
					if err != nil {
						t.Fatal(err)
					}
					sums = append(sums, ms)
				}
				written, _, err := Analyze(context.Background(), sums, cfg, profile)
				if err != nil {
					t.Fatal(err)
				}
				dbPath := filepath.Join(dir, cfg.Name+".pdb")
				if err := pdb.WriteFile(dbPath, written); err != nil {
					t.Fatal(err)
				}

				// ---- Phase 2: reload everything from disk, reverse
				// module order.
				db, err := pdb.ReadFile(dbPath)
				if err != nil {
					t.Fatal(err)
				}
				objs := make([]*parv.Object, len(p1Paths))
				for i := len(p1Paths) - 1; i >= 0; i-- {
					m, _, err := cache.DecodeEntry(readFile(p1Paths[i]))
					if err != nil {
						t.Fatal(err)
					}
					if objs[i], err = Phase2(m, db); err != nil {
						t.Fatal(err)
					}
				}

				// ---- Link in source order.
				exe, err := parv.Link(objs, parv.LinkConfig{})
				if err != nil {
					t.Fatal(err)
				}
				return exe
			}

			for _, name := range PresetNames() {
				cfg := MustPreset(name)
				var profile *parv.Profile
				if cfg.WantProfile {
					train := parv.NewVM(fileFlow(cfg, nil))
					train.ProfileEdges = true
					if _, err := train.Run(trainBound); err != nil {
						t.Fatal(err)
					}
					profile = train.Profile()
				}
				exe := fileFlow(cfg, profile)

				var opts []BuildOption
				buildDir := filepath.Join(dir, "build-"+name)
				if name == "C" {
					opts = append(opts, WithBuildDir(buildDir))
				}
				res, err := Build(context.Background(), prog.sources, cfg, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(exeBytes(t, exe), exeBytes(t, res.Exe)) {
					t.Errorf("%s: file-based executable differs from Build's", name)
				}
				if name != "C" {
					continue
				}

				// Each .p1 file is the record the build directory
				// stores.
				records, err := filepath.Glob(filepath.Join(buildDir, "p1-*.wire"))
				if err != nil || len(records) != len(p1Paths) {
					t.Fatalf("build directory holds phase-1 records %v (%v), want %d", records, err, len(p1Paths))
				}
				for _, p := range p1Paths {
					found := false
					for _, r := range records {
						found = found || bytes.Equal(readFile(p), readFile(r))
					}
					if !found {
						t.Errorf("%s equals no phase-1 record of the build directory", filepath.Base(p))
					}
				}
				if prog.name != "total" {
					continue
				}
				vm := parv.NewVM(exe)
				exit, err := vm.Run(10_000_000)
				if err != nil {
					t.Fatal(err)
				}
				if exit != 5050&255 {
					t.Errorf("exit = %d, want %d", exit, 5050&255)
				}
				// The web for `total` spans both modules: `add` must
				// execute no memory references to it.
				if vm.Stats.SingletonRefs() > 6 {
					t.Errorf("singleton refs = %d; interprocedural promotion across the "+
						"module boundary did not take effect", vm.Stats.SingletonRefs())
				}
			}
		})
	}
}

// TestFlippedPhase1RecordsNeverPanic flips each byte of dhrystone's two
// phase-1 records in turn (xor 0xff), as a corrupted .p1 file reaches mcc
// -phase2: a file has no content-hash name to check it against. Every
// record cache.DecodeEntry accepts must compile under an empty database to
// an object or an error, never a panic. Under -short it flips every
// seventh byte. The check that makes this hold, ir.Module.Validate, runs
// on every decoded record, so it must allocate nothing.
func TestFlippedPhase1RecordsNeverPanic(t *testing.T) {
	b, err := benchprogs.ByName("dhrystone")
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if testing.Short() {
		step = 7
	}
	flips, decoded, panics := 0, 0, 0
	for _, src := range benchSources(t, b) {
		m, ms, err := Phase1(src)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(10, func() { _ = m.Validate() }); n != 0 {
			t.Errorf("%s: ir.Module.Validate allocates %.0f times", src.Name, n)
		}
		rec := cache.EncodeEntry(m, ms)
		for i := 0; i < len(rec); i += step {
			rec[i] ^= 0xff
			m, _, err := cache.DecodeEntry(rec)
			rec[i] ^= 0xff
			flips++
			if err != nil {
				continue
			}
			decoded++
			if msg := phase2Panic(m); msg != "" {
				if panics++; panics <= 5 {
					t.Errorf("%s, byte %d flipped: Phase2 panicked: %s", src.Name, i, msg)
				}
			}
		}
	}
	t.Logf("%d flipped records, %d decoded, %d panicked", flips, decoded, panics)
	if panics > 5 {
		t.Errorf("%d flipped records panicked Phase2 in all", panics)
	}
}

// phase2Panic compiles m under an empty database and returns what Phase2
// panicked with, or "" when it returned.
func phase2Panic(m *ir.Module) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	Phase2(m, pdb.New())
	return ""
}

// FuzzPDBFile feeds program database files to phase 2 the way mcc -phase2
// -pdb reads them. Any database pdb.ReadFile accepts must let Phase2
// compile both dhrystone modules to an object or an error, never a panic.
// The seeds are dhrystone's databases under A–F, plus C's with a promoted
// register out of range (it panicked phase 2 before ReadFile checked
// directives), with FREE equal to CALLEE, and with FREE holding every
// register.
func FuzzPDBFile(f *testing.F) {
	b, err := benchprogs.ByName("dhrystone")
	if err != nil {
		f.Fatal(err)
	}
	sources := benchSources(f, b)
	dir := f.TempDir()
	seed := func(name string, db *pdb.Database) string {
		path := filepath.Join(dir, name+".pdb")
		if err := pdb.WriteFile(path, db); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		return path
	}
	var cPath string
	for _, name := range []string{"A", "B", "C", "D", "E", "F"} {
		cfg := MustPreset(name)
		var opts []BuildOption
		if cfg.WantProfile {
			opts = append(opts, WithProfile(b.MaxInstrs))
		}
		res, err := Build(context.Background(), sources, cfg, opts...)
		if err != nil {
			f.Fatal(err)
		}
		if path := seed(name, res.DB); name == "C" {
			cPath = path
		}
	}
	for i, mutate := range []func(d *pdb.ProcDirectives){
		func(d *pdb.ProcDirectives) { d.Promoted[0].Reg = 200 },
		func(d *pdb.ProcDirectives) { d.Free = d.Callee },
		func(d *pdb.ProcDirectives) { d.Free = ^regs.Set(0) },
	} {
		db, err := pdb.ReadFile(cPath)
		if err != nil {
			f.Fatal(err)
		}
		var target *pdb.ProcDirectives
		for _, d := range db.Procs {
			if len(d.Promoted) > 0 && !d.Callee.Empty() && (target == nil || d.Name < target.Name) {
				target = d
			}
		}
		if target == nil {
			f.Fatal("C's database promotes no global in a procedure with callee-saves registers")
		}
		mutate(target)
		if _, err := pdb.ReadFile(seed(fmt.Sprintf("bad%d", i), db)); err == nil {
			f.Fatalf("mutation %d of C's database still reads", i)
		}
	}

	mods := make([]*ir.Module, len(sources))
	for i, src := range sources {
		if mods[i], _, err = Phase1(src); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "prog.pdb")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := pdb.ReadFile(path)
		if err != nil {
			return
		}
		for _, m := range mods {
			// An object or an error; a panic fails the target.
			_, _ = Phase2(m, db)
		}
	})
}
