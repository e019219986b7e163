// Package summary defines the per-procedure records the compiler first
// phase emits for the program analyzer (§3 of the paper):
//
//   - the global variables accessed in the procedure, with local access
//     frequencies and alias flags;
//   - the procedures called, with local call frequencies;
//   - procedures whose addresses have been computed, and whether the
//     procedure makes indirect calls;
//   - an estimate of the number of callee-saves registers needed.
//
// The program analyzer reads all of a program's summary records to build
// the call graph; no code is exchanged, only these records. A module's
// summary heads its phase-1 record (the cache package's entry: a build
// directory's p1-*.wire, an mcc -phase1 .p1 file) in the wire form
// AppendSummary defines, so the analyzer reads it without decoding the
// module's code.
package summary

import (
	"fmt"
	"math/bits"
	"sort"

	"ipra/internal/ir"
)

// GlobalRef is one global variable accessed by a procedure.
type GlobalRef struct {
	Name    string
	Freq    int64 // loop-depth-weighted local access count
	Reads   int64
	Writes  int64
	Aliased bool // address computed in this procedure
}

// CallSite aggregates the calls from one procedure to one callee.
type CallSite struct {
	Callee string
	Freq   int64 // loop-depth-weighted local call count
}

// ProcRecord is the summary record for one procedure.
type ProcRecord struct {
	Name   string
	Module string
	Static bool

	GlobalRefs []GlobalRef
	Calls      []CallSite

	// AddrTakenProcs lists procedures whose addresses this procedure
	// computes (possible indirect call targets, §7.3).
	AddrTakenProcs []string
	// MakesIndirectCalls is set when the procedure contains indirect calls.
	MakesIndirectCalls bool
	IndirectCallFreq   int64

	// CalleeSavesNeeded estimates how many callee-saves registers the
	// procedure wants (values live across calls) under full level-2
	// optimization, including intraprocedural global promotion.
	CalleeSavesNeeded int
	// CalleeSavesBase is the same estimate before global promotion; the
	// greedy web coloring strategy uses it, since web-promoting a global
	// removes its promotion register from the procedure's own need.
	CalleeSavesBase int
	// CallerSavesNeeded estimates the procedure's demand for caller-saves
	// scratch registers (values not live across calls). The §7.6.2
	// caller-saves preallocation extension turns this into a contract: the
	// procedure's allocator is restricted to that many scratch registers,
	// letting callers keep values in the remaining ones across calls.
	CallerSavesNeeded int
}

// GlobalInfo describes a global variable at module scope.
type GlobalInfo struct {
	Name      string
	Module    string
	Size      int32
	Defined   bool
	Static    bool
	Scalar    bool
	AddrTaken bool // aliased anywhere in the module
}

// Eligible reports whether the global qualifies for promotion (§4.1.2):
// defined, scalar, small enough to fit in a single register, and never
// aliased. Over a program-wide MergeGlobals entry it is the analyzer's
// rule; over one module's table it is that module's local view.
func (g *GlobalInfo) Eligible() bool {
	return g.Defined && g.Scalar && !g.AddrTaken && g.Size <= 4
}

// MergeGlobals folds the module-level global tables into the program-wide
// table: a global's module, size, scalarity and linkage come from its
// defining module, and it is aliased if any module aliases it. The entries
// are fresh copies that the caller may change.
func MergeGlobals(sums []*ModuleSummary) map[string]*GlobalInfo {
	out := make(map[string]*GlobalInfo)
	for _, ms := range sums {
		for i := range ms.Globals {
			gi := &ms.Globals[i]
			g := out[gi.Name]
			if g == nil {
				g = &GlobalInfo{Name: gi.Name}
				out[gi.Name] = g
			}
			if gi.Defined {
				g.Module, g.Size, g.Defined = gi.Module, gi.Size, true
				g.Static, g.Scalar = gi.Static, gi.Scalar
			}
			g.AddrTaken = g.AddrTaken || gi.AddrTaken
		}
	}
	return out
}

// EligibleNames returns the names of the eligible globals, sorted.
func EligibleNames(globals map[string]*GlobalInfo) []string {
	var out []string
	for name, g := range globals {
		if g.Eligible() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// ModuleSummary is the summary of one compilation unit.
type ModuleSummary struct {
	Module  string
	Procs   []ProcRecord
	Globals []GlobalInfo
}

// Validate checks what the analyzer assumes of a decoded summary: each
// procedure is listed once and filed under the summary's module, and every
// count, frequency, register need and size is non-negative. It returns the
// first violation found, naming the module.
func (ms *ModuleSummary) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("summary of module %q: %s", ms.Module, fmt.Sprintf(format, args...))
	}
	seen := make(map[string]bool, len(ms.Procs))
	for i := range ms.Procs {
		p := &ms.Procs[i]
		if seen[p.Name] {
			return bad("procedure %s listed twice", p.Name)
		}
		seen[p.Name] = true
		if p.Module != ms.Module {
			return bad("procedure %s filed under module %q", p.Name, p.Module)
		}
		for _, r := range p.GlobalRefs {
			if r.Freq < 0 || r.Reads < 0 || r.Writes < 0 {
				return bad("procedure %s: negative access count for %s", p.Name, r.Name)
			}
		}
		for _, c := range p.Calls {
			if c.Freq < 0 {
				return bad("procedure %s: negative frequency for the call to %s", p.Name, c.Callee)
			}
		}
		if p.IndirectCallFreq < 0 {
			return bad("procedure %s: negative indirect call frequency", p.Name)
		}
		if p.CalleeSavesNeeded < 0 || p.CalleeSavesBase < 0 || p.CallerSavesNeeded < 0 {
			return bad("procedure %s: negative register need", p.Name)
		}
	}
	for _, g := range ms.Globals {
		if g.Size < 0 {
			return bad("global %s: negative size %d", g.Name, g.Size)
		}
	}
	return nil
}

// freqOfDepth converts a loop nesting depth into the paper's compile-time
// frequency heuristic (each loop level multiplies by 10).
func freqOfDepth(depth int) int64 {
	f := int64(1)
	for i := 0; i < depth && i < 6; i++ {
		f *= 10
	}
	return f
}

// Summarize computes the summary record for one (optimized) IR function.
// The paper notes (§6) that the prototype ran the first phase through code
// generation and optimization to obtain good heuristics; correspondingly,
// callers should pass the post-optimization IR.
func Summarize(f *ir.Func) ProcRecord {
	rec := ProcRecord{Name: f.Name, Module: f.Module, Static: f.Static}

	grefs := make(map[string]*GlobalRef)
	calls := make(map[string]int64)
	addrTaken := make(map[string]bool)

	gref := func(name string) *GlobalRef {
		g := grefs[name]
		if g == nil {
			g = &GlobalRef{Name: name}
			grefs[name] = g
		}
		return g
	}

	for _, b := range f.Blocks {
		w := freqOfDepth(b.LoopDepth)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.Load:
				if in.Mem.Kind == ir.MemGlobal {
					g := gref(in.Mem.Sym)
					g.Freq += w
					g.Reads += w
					if !in.Mem.Singleton || in.Mem.Off != 0 {
						g.Aliased = true // partial access implies aggregate
					}
				}
			case ir.Store:
				if in.Mem.Kind == ir.MemGlobal {
					g := gref(in.Mem.Sym)
					g.Freq += w
					g.Writes += w
					if !in.Mem.Singleton || in.Mem.Off != 0 {
						g.Aliased = true
					}
				}
			case ir.AddrGlobal:
				// Could be a variable (aliased!) or a function (indirect
				// call target). The caller disambiguates via module global
				// tables; record both candidates here.
				addrTaken[in.Callee] = true
			case ir.Call:
				if in.IndirectCall {
					rec.MakesIndirectCalls = true
					rec.IndirectCallFreq += w
				} else {
					calls[in.Callee] += w
				}
			}
		}
	}

	for _, name := range sortedKeys(grefs) {
		rec.GlobalRefs = append(rec.GlobalRefs, *grefs[name])
	}
	for _, name := range sortedKeysI64(calls) {
		rec.Calls = append(rec.Calls, CallSite{Callee: name, Freq: calls[name]})
	}
	for name := range addrTaken {
		rec.AddrTakenProcs = append(rec.AddrTakenProcs, name)
	}
	sort.Strings(rec.AddrTakenProcs)

	// One liveness solution serves both register-need estimates.
	f.Recompute()
	lv := ir.ComputeLiveness(f)
	rec.CalleeSavesNeeded = calleeSaves(f, lv)
	rec.CalleeSavesBase = rec.CalleeSavesNeeded
	rec.CallerSavesNeeded = callerSaves(f, lv)
	return rec
}

// EstimateCalleeSaves counts virtual registers live into at least one call
// — the values that want callee-saves homes (capped at the size of the
// conventional callee-saves set). The paper's prototype ran the first
// phase through full optimization to make this estimate accurate (§6);
// callers can refine a record by re-running this on a fully optimized
// copy of the function.
func EstimateCalleeSaves(f *ir.Func) int {
	f.Recompute()
	return calleeSaves(f, ir.ComputeLiveness(f))
}

// calleeSaves is EstimateCalleeSaves over f's liveness lv. A call's live-in
// set holds what is live across it, plus its own arguments.
func calleeSaves(f *ir.Func, lv *ir.Liveness) int {
	liveAcross := ir.NewBitSet(int(f.NextReg))
	walk(f, lv, func(in *ir.Instr, _, liveIn ir.BitSet) {
		if in.Op == ir.Call {
			liveAcross.OrWith(liveIn)
		}
	})
	return min(liveAcross.Count(), 16)
}

// callerSaves estimates, from f's liveness lv, the peak number of
// simultaneously live values that do not cross calls — the procedure's
// scratch-register demand (capped at the size of the conventional
// caller-saves set).
func callerSaves(f *ir.Func, lv *ir.Liveness) int {
	// Pass 1: which registers cross a call (are live out of one)?
	crossing := ir.NewBitSet(int(f.NextReg))
	walk(f, lv, func(in *ir.Instr, liveOut, _ ir.BitSet) {
		if in.Op == ir.Call {
			crossing.OrWith(liveOut)
		}
	})
	// Pass 2: peak liveness of non-crossing registers (register 0 is
	// never counted).
	crossing.Set(0)
	peak := 0
	walk(f, lv, func(_ *ir.Instr, liveOut, _ ir.BitSet) {
		n := 0
		for w := range liveOut {
			n += bits.OnesCount64(liveOut[w] &^ crossing[w])
		}
		peak = max(peak, n)
	})
	return min(peak, 11)
}

// walk runs fn at each instruction of f, backwards through each block,
// with the registers live out of and into the instruction, reconstructed
// from the block-level liveness lv. The two sets are scratch space that fn
// must not keep.
func walk(f *ir.Func, lv *ir.Liveness, fn func(in *ir.Instr, liveOut, liveIn ir.BitSet)) {
	out, live := ir.NewBitSet(int(f.NextReg)), ir.NewBitSet(int(f.NextReg))
	var uses []ir.Reg
	for _, b := range f.Blocks {
		live.Copy(lv.Out[b.ID])
		if b.Term.Kind == ir.TermBranch {
			live.Set(int(b.Term.Cond))
		}
		if b.Term.Kind == ir.TermReturn && b.Term.HasVal {
			live.Set(int(b.Term.Val))
		}
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			out.Copy(live)
			if d := in.Def(); d != 0 {
				live.Clear(int(d))
			}
			uses = in.Uses(uses[:0])
			for _, u := range uses {
				live.Set(int(u))
			}
			fn(in, out, live)
		}
	}
}

// SummarizeModule builds the whole summary file for a module.
func SummarizeModule(m *ir.Module) *ModuleSummary {
	ms := &ModuleSummary{Module: m.Name}
	funcNames := make(map[string]bool)
	for _, f := range m.Funcs {
		funcNames[f.Name] = true
	}
	for _, g := range m.Globals {
		ms.Globals = append(ms.Globals, GlobalInfo{
			Name: g.Name, Module: g.Module, Size: g.Size,
			Defined: g.Defined, Static: g.Static, Scalar: g.Scalar,
			AddrTaken: g.AddrTaken,
		})
	}
	for _, f := range m.Funcs {
		rec := Summarize(f)
		// Split AddrTakenProcs into true procedure targets vs aliased
		// globals: an AddrGlobal of a variable aliases that variable.
		var procs []string
		for _, n := range rec.AddrTakenProcs {
			if isGlobalVar(ms.Globals, n) {
				markAliased(&rec, ms, n)
			} else {
				procs = append(procs, n)
			}
		}
		rec.AddrTakenProcs = procs
		ms.Procs = append(ms.Procs, rec)
	}
	return ms
}

func isGlobalVar(gs []GlobalInfo, name string) bool {
	for i := range gs {
		if gs[i].Name == name {
			return true
		}
	}
	return false
}

func markAliased(rec *ProcRecord, ms *ModuleSummary, name string) {
	for i := range rec.GlobalRefs {
		if rec.GlobalRefs[i].Name == name {
			rec.GlobalRefs[i].Aliased = true
		}
	}
	for i := range ms.Globals {
		if ms.Globals[i].Name == name {
			ms.Globals[i].AddrTaken = true
		}
	}
}

func sortedKeys(m map[string]*GlobalRef) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedKeysI64(m map[string]int64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
