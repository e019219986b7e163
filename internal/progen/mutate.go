// Deterministic seeded edit mutation: given a generated program, produce
// the program "one edit later". The incremental-build tests and the
// edit-loop benchmark replay these edits — a no-op touch, a
// single-procedure body change, a new call edge, a new recursion cycle —
// and assert that an incremental rebuild matches a clean build byte for
// byte.
//
// Like Generate, mutation is a pure function of its inputs: the same
// (cfg, seed, kind) always picks the same procedure and applies the same
// edit, in one process or across processes.
package progen

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
)

// EditKind names one mutation shape.
type EditKind string

const (
	// EditNoop touches a module without changing its meaning (a comment):
	// phase 1 re-runs, and its record comes out unchanged.
	EditNoop EditKind = "noop"
	// EditBody changes one procedure's body: global reference frequencies
	// move and one new global reference appears, but no call edge changes.
	EditBody EditKind = "body"
	// EditCall adds one acyclic call edge out of one procedure.
	EditCall EditKind = "call"
	// EditCycle adds a back edge closing a recursion cycle: the SCC
	// structure changes.
	EditCycle EditKind = "scc"
)

// EditKinds lists every mutation shape.
func EditKinds() []EditKind { return []EditKind{EditNoop, EditBody, EditCall, EditCycle} }

// pickProc deterministically chooses the edited procedure: any procedure
// except the first few rows (kept clean so start-node shapes stay boring)
// and except the last (EditCall needs a higher-numbered callee).
func pickProc(cfg Config, rng *rand.Rand) int {
	cfg = cfg.withDefaults()
	nprocs := cfg.Modules * cfg.ProcsPerModule
	lo := cfg.Modules
	if lo >= nprocs-1 {
		lo = 0
	}
	return lo + rng.Intn(nprocs-1-lo)
}

var procHeadRE = regexp.MustCompile(`(?m)^int (p\d+)\(int x(, int depth)?\) \{$`)

// Mutate returns a copy of the generated modules with one edit applied at
// source level, plus a description. The modules must come from
// Generate(cfg). The edited program still terminates: the cycle edit
// guards its back edge with a bounded counter (which also adds a static
// global, so the analyzer's eligible universe moves).
func Mutate(cfg Config, mods []Module, seed int64, kind EditKind) ([]Module, string) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	out := make([]Module, len(mods))
	copy(out, mods)

	pi := pickProc(cfg, rng)
	mi := pi % cfg.Modules
	if mi >= len(out) {
		return out, "no-op (module out of range)"
	}
	name := fmt.Sprintf("p%d", pi)

	switch kind {
	case EditNoop:
		out[mi].Text += fmt.Sprintf("// edit-noop seed=%d\n", seed)
		return out, fmt.Sprintf("no-op touch of %s", out[mi].Name)

	case EditBody:
		line := "\tcheck = check + 5;\n"
		desc := fmt.Sprintf("body edit in %s", name)
		if g := visibleGlobal(out[mi].Text); g != "" {
			line = fmt.Sprintf("\tacc += %s;\n\tcheck = check + 5;\n", g)
			desc = fmt.Sprintf("body edit in %s (+ref %s)", name, g)
		}
		text, ok := insertInProc(out[mi].Text, name, line)
		if !ok {
			return out, "no-op (procedure not found)"
		}
		out[mi].Text = text
		return out, desc

	case EditCall:
		nprocs := cfg.Modules * cfg.ProcsPerModule
		callee := pi + 1 + rng.Intn(nprocs-pi-1)
		calleeName := fmt.Sprintf("p%d", callee)
		call := fmt.Sprintf("\tacc += %s(acc & 1023);\n", calleeName)
		if isDeepProc(mods, calleeName) {
			call = fmt.Sprintf("\tacc += %s(acc & 1023, 0);\n", calleeName)
		}
		text, ok := insertInProc(out[mi].Text, name, call)
		if !ok {
			return out, "no-op (procedure not found)"
		}
		out[mi].Text = text
		return out, fmt.Sprintf("call edit in %s (new edge to %s)", name, calleeName)

	case EditCycle:
		caller := findSourceCaller(mods, name)
		if caller == "" {
			return out, "no-op (no caller for cycle)"
		}
		call := fmt.Sprintf("%s(acc & 255)", caller)
		if isDeepProc(mods, caller) {
			call = fmt.Sprintf("%s(acc & 255, 0)", caller)
		}
		guard := fmt.Sprintf("cyc_guard%d", pi)
		line := fmt.Sprintf("\tif (%s < 8) { %s = %s + 1; acc += %s; }\n", guard, guard, guard, call)
		text, ok := insertInProc(out[mi].Text, name, line)
		if !ok {
			return out, "no-op (procedure not found)"
		}
		out[mi].Text = fmt.Sprintf("static int %s = 0;\n", guard) + text
		return out, fmt.Sprintf("scc edit in %s (guarded back edge to %s)", name, caller)
	}
	return out, "no-op (unknown kind)"
}

// insertInProc inserts line just before the trailing checksum statement
// of the named procedure's body.
func insertInProc(text, name string, line string) (string, bool) {
	head := fmt.Sprintf("int %s(int x", name)
	start := strings.Index(text, "\n"+head)
	if start < 0 {
		return text, false
	}
	const marker = "\tcheck = check + (acc & 8191);\n"
	rel := strings.Index(text[start:], marker)
	if rel < 0 {
		return text, false
	}
	at := start + rel
	return text[:at] + line + text[at:], true
}

// visibleGlobal picks a non-static global visible in the module.
func visibleGlobal(text string) string {
	m := regexp.MustCompile(`(?m)^(?:extern )?int (g\d+)`).FindStringSubmatch(text)
	if m == nil {
		return ""
	}
	return m[1]
}

// isDeepProc reports whether the named procedure uses the recursive
// (int, int) signature.
func isDeepProc(mods []Module, name string) bool {
	head := fmt.Sprintf("int %s(int x, int depth) {", name)
	for _, m := range mods {
		if strings.Contains(m.Text, head) {
			return true
		}
	}
	return false
}

// findSourceCaller returns a procedure that calls target directly.
func findSourceCaller(mods []Module, target string) string {
	needle := fmt.Sprintf("\tacc += %s(", target)
	for _, m := range mods {
		idx := strings.Index(m.Text, needle)
		if idx < 0 {
			continue
		}
		// Walk back to the enclosing procedure head.
		var caller string
		for _, hm := range procHeadRE.FindAllStringSubmatchIndex(m.Text[:idx], -1) {
			caller = m.Text[hm[2]:hm[3]]
		}
		if caller != "" && caller != target {
			return caller
		}
	}
	return ""
}
