// Package progen generates large synthetic MiniC programs with realistic
// interprocedural structure: a layered call DAG split across modules,
// subsystem-localized global variable usage ("references to global
// variables tend to occur in localized sets of procedures", §4.1.1),
// occasional recursion, statics, and indirect calls.
//
// The generator serves three purposes:
//
//   - the §6.2 web census: reproducing the shape of the PA-optimizer
//     experiment (hundreds of eligible globals splitting into more webs,
//     many discarded as sparse, most of the rest colorable with 6
//     registers) requires a program far larger than the hand-written
//     suite;
//   - the analyzer's scaling workloads: ipra-analyze -synth and the
//     analyzer benchmarks analyze the summaries the compiler's first
//     phase writes for a Preset program, up to ~10000 procedures; and
//   - differential testing: every generated program accumulates a
//     checksum, so any disagreement between compiler configurations is a
//     miscompilation.
package progen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config sizes a generated program. Generation is a pure function of the
// Config — all randomness flows from the explicit Seed through a local
// rand.Rand (never the global source), so two calls with equal Configs
// produce byte-identical programs, in one process or across processes.
type Config struct {
	Seed           int64
	Modules        int // compilation units
	ProcsPerModule int
	Globals        int // scalar global variables
	// SubsystemSize is how many procedures share a global's locality.
	SubsystemSize int
	// Recursion adds self-recursive procedures (with depth bounds).
	Recursion bool
	// IndirectCalls adds a function-pointer dispatch table.
	IndirectCalls bool
	// Statics makes a fraction of globals module-private.
	Statics bool
	// LoopIters scales run time.
	LoopIters int
}

// Preset returns one of the named analyzer-benchmark size presets:
//
//	small   ~500 procedures  (25 modules × 20),  64 eligible globals
//	medium  ~2000 procedures (50 modules × 40),  256 eligible globals
//	large   ~10000 procedures (100 modules × 100), 512 eligible globals
//
// The presets scale the whole-program analyzer's combinatorial core — call
// graph traversals, reference-set propagation, web construction, cluster
// identification — far past the hand-written benchmark suite. Each preset
// fixes its own seed, so a preset names one exact program.
func Preset(name string) (Config, error) {
	switch name {
	case "small":
		return Config{Seed: 500, Modules: 25, ProcsPerModule: 20, Globals: 64,
			SubsystemSize: 6, Recursion: true, IndirectCalls: true, Statics: true, LoopIters: 2}, nil
	case "medium":
		return Config{Seed: 2000, Modules: 50, ProcsPerModule: 40, Globals: 256,
			SubsystemSize: 7, Recursion: true, IndirectCalls: true, Statics: true, LoopIters: 2}, nil
	case "large":
		return Config{Seed: 10000, Modules: 100, ProcsPerModule: 100, Globals: 512,
			SubsystemSize: 8, Recursion: true, IndirectCalls: true, Statics: true, LoopIters: 1}, nil
	}
	return Config{}, fmt.Errorf("progen: unknown preset %q (have %s)", name, strings.Join(PresetNames(), ", "))
}

// PresetNames lists the Preset names in size order.
func PresetNames() []string { return []string{"small", "medium", "large"} }

// DefaultCensusConfig approximates the PA-optimizer shape of §6.2.
func DefaultCensusConfig() Config {
	return Config{
		Seed:           1990,
		Modules:        10,
		ProcsPerModule: 22,
		Globals:        360,
		SubsystemSize:  5,
		Recursion:      true,
		IndirectCalls:  true,
		Statics:        true,
		LoopIters:      3,
	}
}

// Module is one generated compilation unit.
type Module struct {
	Name string
	Text string
}

type proc struct {
	id      int
	module  int
	name    string
	callees []int
	globals []int // global indexes read/written
	deep    bool  // recursive worker
}

type global struct {
	id     int
	module int
	name   string
	static bool
}

// withDefaults fills unset size fields.
func (cfg Config) withDefaults() Config {
	if cfg.Modules <= 0 {
		cfg.Modules = 4
	}
	if cfg.ProcsPerModule <= 0 {
		cfg.ProcsPerModule = 10
	}
	if cfg.SubsystemSize <= 0 {
		cfg.SubsystemSize = 4
	}
	if cfg.LoopIters <= 0 {
		cfg.LoopIters = 2
	}
	return cfg
}

// buildLayout constructs the interprocedural skeleton — the call DAG and
// the global-to-subsystem assignment. Generate and SynthesizeProfile both
// draw it first from a fresh rand.Rand of the seed, so the profile
// describes the program Generate writes.
func buildLayout(cfg Config, rng *rand.Rand) ([]*proc, []*global) {
	nprocs := cfg.Modules * cfg.ProcsPerModule

	// ---- Build the call DAG: procedure i may call only procedures with
	// larger indexes (plus bounded self-recursion), guaranteeing
	// termination.
	procs := make([]*proc, nprocs)
	for i := range procs {
		procs[i] = &proc{
			id:     i,
			module: i % cfg.Modules,
			name:   fmt.Sprintf("p%d", i),
		}
		ncall := rng.Intn(4)
		for c := 0; c < ncall; c++ {
			lo := i + 1
			if lo >= nprocs {
				break
			}
			// Prefer nearby callees so subsystems stay localized.
			span := 1 + rng.Intn(24)
			callee := lo + rng.Intn(span)
			if callee >= nprocs {
				callee = lo + rng.Intn(nprocs-lo)
			}
			procs[i].callees = append(procs[i].callees, callee)
		}
		if cfg.Recursion && rng.Intn(20) == 0 {
			procs[i].deep = true
		}
	}

	// ---- Assign globals to subsystems: a contiguous run of procedures
	// shares each global, keeping its web regional.
	globals := make([]*global, cfg.Globals)
	for gi := range globals {
		owner := rng.Intn(nprocs)
		g := &global{id: gi, module: procs[owner].module}
		g.static = cfg.Statics && rng.Intn(4) == 0
		if g.static {
			g.name = fmt.Sprintf("sg%d", gi)
		} else {
			g.name = fmt.Sprintf("g%d", gi)
		}
		globals[gi] = g
		// Spread uses over a window of procedures after the owner; most
		// users are in the owner's module when the global is static.
		users := 1 + rng.Intn(cfg.SubsystemSize)
		for u := 0; u < users; u++ {
			p := owner + rng.Intn(cfg.SubsystemSize*3)
			if p >= nprocs {
				p = nprocs - 1
			}
			if g.static && procs[p].module != g.module {
				continue
			}
			procs[p].globals = append(procs[p].globals, gi)
		}
		procs[owner].globals = append(procs[owner].globals, gi)
	}
	return procs, globals
}

// Generate produces the program. It is deterministic in cfg.Seed.
func Generate(cfg Config) []Module {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	procs, globals := buildLayout(cfg, rng)

	// ---- Emit module sources.
	var mods []Module
	for m := 0; m < cfg.Modules; m++ {
		var b strings.Builder
		fmt.Fprintf(&b, "// generated by progen: module %d of %d (seed %d)\n", m, cfg.Modules, cfg.Seed)

		// Global definitions owned by this module; externs for the rest.
		for _, g := range globals {
			if g.module == m {
				if g.static {
					fmt.Fprintf(&b, "static int %s = %d;\n", g.name, g.id%17)
				} else {
					fmt.Fprintf(&b, "int %s = %d;\n", g.name, g.id%17)
				}
			} else if !g.static {
				fmt.Fprintf(&b, "extern int %s;\n", g.name)
			}
		}
		if m == 0 {
			b.WriteString("int check;\n")
			if cfg.IndirectCalls {
				b.WriteString("int (*dispatch[4])(int);\n")
			}
		} else {
			b.WriteString("extern int check;\n")
		}

		for _, p := range procs {
			if p.module != m {
				continue
			}
			emitProc(&b, rng, cfg, p, procs, globals)
		}

		if m == 0 {
			emitMain(&b, rng, cfg, procs)
		}
		mods = append(mods, Module{Name: fmt.Sprintf("gen%d.mc", m), Text: b.String()})
	}
	return mods
}

// emitProc writes one procedure body: global traffic, arithmetic, loops,
// and calls to its callees.
func emitProc(b *strings.Builder, rng *rand.Rand, cfg Config, p *proc, procs []*proc, globals []*global) {
	if p.deep {
		fmt.Fprintf(b, "int %s(int x, int depth) {\n", p.name)
	} else {
		fmt.Fprintf(b, "int %s(int x) {\n", p.name)
	}
	b.WriteString("\tint acc = x;\n\tint i;\n")

	// Reads and updates of the subsystem globals, some inside a loop so
	// the frequency heuristics see varied weights.
	inLoop := rng.Intn(2) == 0 && len(p.globals) > 0
	if inLoop {
		fmt.Fprintf(b, "\tfor (i = 0; i < %d; i++) {\n", 1+rng.Intn(3))
	}
	for _, gi := range p.globals {
		g := globals[gi]
		canSee := !g.static || g.module == p.module
		if !canSee {
			continue
		}
		indent := "\t"
		if inLoop {
			indent = "\t\t"
		}
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(b, "%sacc += %s;\n", indent, g.name)
		case 1:
			fmt.Fprintf(b, "%s%s = %s + acc;\n", indent, g.name, g.name)
		default:
			fmt.Fprintf(b, "%sif (%s > acc) { acc ^= %s; }\n", indent, g.name, g.name)
		}
	}
	if inLoop {
		b.WriteString("\t}\n")
	}

	// Calls.
	for _, c := range p.callees {
		callee := procs[c]
		if callee.deep {
			fmt.Fprintf(b, "\tacc += %s(acc & 1023, 0);\n", callee.name)
		} else {
			fmt.Fprintf(b, "\tacc += %s(acc & 1023);\n", callee.name)
		}
	}

	if p.deep {
		b.WriteString("\tif (depth < 3) {\n")
		fmt.Fprintf(b, "\t\tacc += %s(acc & 255, depth + 1);\n", p.name)
		b.WriteString("\t}\n")
	}
	b.WriteString("\tcheck = check + (acc & 8191);\n")
	b.WriteString("\treturn acc & 65535;\n}\n\n")
}

func emitMain(b *strings.Builder, rng *rand.Rand, cfg Config, procs []*proc) {
	// Pick dispatch targets first: they need prototypes (a function name
	// used as a value is not implicitly declarable).
	var targets []*proc
	if cfg.IndirectCalls {
		for i := 0; i < 4; i++ {
			target := procs[rng.Intn(len(procs)/4)]
			for target.deep {
				// Dispatch entries need the (int) signature; skip the
				// recursive workers, whose signature differs.
				target = procs[(target.id+1)%len(procs)]
			}
			targets = append(targets, target)
		}
		seen := map[string]bool{}
		for _, t := range targets {
			if t.module != 0 && !seen[t.name] {
				seen[t.name] = true
				fmt.Fprintf(b, "int %s(int x);\n", t.name)
			}
		}
	}
	b.WriteString("int main() {\n\tint round;\n\tcheck = 0;\n")
	for i, t := range targets {
		fmt.Fprintf(b, "\tdispatch[%d] = %s;\n", i, t.name)
	}
	fmt.Fprintf(b, "\tfor (round = 0; round < %d; round++) {\n", cfg.LoopIters)
	// Call a handful of roots.
	for i := 0; i < 6 && i < len(procs); i++ {
		p := procs[i*7%len(procs)]
		if p.deep {
			fmt.Fprintf(b, "\t\tcheck += %s(round + %d, 0);\n", p.name, i)
		} else {
			fmt.Fprintf(b, "\t\tcheck += %s(round + %d);\n", p.name, i)
		}
	}
	if cfg.IndirectCalls {
		b.WriteString("\t\tcheck += dispatch[round & 3](round);\n")
	}
	b.WriteString("\t}\n")
	b.WriteString("\treturn check & 255;\n}\n")
}
