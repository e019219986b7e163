package ipra

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"ipra/internal/codegen"
	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/progen"
)

// Per-layer benchmarks of the compiler second phase over the modules of
// the cold-build benchmark program (coldBuildShape) under configuration C,
// so the optimizer and code generator each report their own allocations:
//
//	go test -run '^$' -bench 'BenchmarkOptLevel2|BenchmarkCodegenCompile' -benchmem .

var (
	backendOnce sync.Once
	backendProg *Program
	backendErr  error
)

// backendProgram builds the cold-build program once; its phase-1 modules
// and program database are the benchmarks' input.
func backendProgram(b *testing.B) *Program {
	b.Helper()
	backendOnce.Do(func() {
		cfg := MustPreset("C")
		cfg.DisableCache = true
		res, err := Build(context.Background(), progenSources(progen.Generate(coldBuildShape)), cfg)
		if err != nil {
			backendErr = err
			return
		}
		backendProg = res.Program
	})
	if backendErr != nil {
		b.Fatal(backendErr)
	}
	return backendProg
}

func cloneModules(mods []*ir.Module) []*ir.Module {
	out := make([]*ir.Module, len(mods))
	for i, m := range mods {
		out[i] = m.Clone()
	}
	return out
}

// BenchmarkOptLevel2 measures phase 2's optimization of every module,
// which starts from the level-1 IR phase 1 kept (Program.Modules): web
// directives, then opt.Promote, the half of opt.Level2 that phase 1 left,
// per function.
func BenchmarkOptLevel2(b *testing.B) {
	p := backendProgram(b)
	eligible := p.DB.EligibleSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work := cloneModules(p.Modules)
		b.StartTimer()
		for _, m := range work {
			for _, f := range m.Funcs {
				optimizeFunc(f, p.DB, eligible)
			}
		}
	}
}

var benchExe *parv.Executable

// BenchmarkColdBuild measures a whole clean build of the cold-build
// benchmark program (coldBuildShape, configuration C, phase-1 cache
// disabled), as the benchmark's cold-build workload runs it, with one
// worker and with one per CPU. B/op and allocs/op are the build's
// allocation:
//
//	go test -run '^$' -bench BenchmarkColdBuild -benchmem .
func BenchmarkColdBuild(b *testing.B) {
	src := progenSources(progen.Generate(coldBuildShape))
	for _, jobs := range []int{1, 0} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			cfg := MustPreset("C")
			cfg.DisableCache = true
			cfg.Jobs = jobs
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Build(context.Background(), src, cfg)
				if err != nil {
					b.Fatal(err)
				}
				benchExe = res.Exe
			}
		})
	}
}

var benchObject *parv.Object

// BenchmarkCodegenCompile measures codegen.Compile (lowering, register
// allocation and emission) of every optimized module.
func BenchmarkCodegenCompile(b *testing.B) {
	p := backendProgram(b)
	eligible := p.DB.EligibleSet()
	work := cloneModules(p.Modules)
	for _, m := range work {
		for _, f := range m.Funcs {
			optimizeFunc(f, p.DB, eligible)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range work {
			obj, err := codegen.Compile(m, p.DB)
			if err != nil {
				b.Fatal(err)
			}
			benchObject = obj
		}
	}
}
