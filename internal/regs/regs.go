// Package regs provides the register-set type shared by the program
// analyzer's spill code motion, the program database, and the compiler
// second phase's register allocator.
package regs

import (
	"fmt"
	"math/bits"
	"strings"

	"ipra/internal/parv"
)

// Set is a bitmask over PARV's 32 general registers.
type Set uint32

// Of builds a set from register numbers.
func Of(rs ...uint8) Set {
	var s Set
	for _, r := range rs {
		s |= 1 << r
	}
	return s
}

// The conventional sets, computed once: directive validation asks for
// them once per procedure of every analysis.
var (
	stdCalleeSaved = Of(parv.CalleeSaved()...)
	stdCallerSaved = Of(parv.CallerSaved()...)
)

// StdCalleeSaved is the conventional callee-saves set (r3–r18).
func StdCalleeSaved() Set { return stdCalleeSaved }

// StdCallerSaved is the conventional caller-saves set.
func StdCallerSaved() Set { return stdCallerSaved }

// Has reports membership.
func (s Set) Has(r uint8) bool { return s&(1<<r) != 0 }

// Add returns s ∪ {r}.
func (s Set) Add(r uint8) Set { return s | 1<<r }

// Remove returns s ∖ {r}.
func (s Set) Remove(r uint8) Set { return s &^ (1 << r) }

// Union returns s ∪ t.
func (s Set) Union(t Set) Set { return s | t }

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set { return s & t }

// Minus returns s ∖ t.
func (s Set) Minus(t Set) Set { return s &^ t }

// Empty reports whether the set has no members.
func (s Set) Empty() bool { return s == 0 }

// Count returns the number of members.
func (s Set) Count() int { return bits.OnesCount32(uint32(s)) }

// Regs returns the members in ascending order.
func (s Set) Regs() []uint8 {
	var out []uint8
	for r := uint8(0); r < 32; r++ {
		if s.Has(r) {
			out = append(out, r)
		}
	}
	return out
}

// String renders the set as {r3,r4,...}.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, r := range s.Regs() {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "r%d", r)
	}
	b.WriteByte('}')
	return b.String()
}
