// Synthetic call-frequency profiles over generated programs.
//
// SynthesizeProfile walks the same deterministic call DAG that Generate
// builds and assigns dynamic call counts under a Zipf-like popularity
// whose hot set rotates with a phase counter, producing a parv.Profile
// without running the simulator: the workload change profile-drift
// detection exists to catch.
package progen

import (
	"math/rand"

	"ipra/internal/parv"
)

// countCap bounds per-edge counts so deep DAG propagation can never
// overflow (counts are sums of products along call paths).
const countCap = uint64(1) << 40

// weight returns one procedure's popularity under phase, in 1..8: a
// deterministic rank permutation, rotated by a third of the program per
// phase, with weight decaying hyperbolically from 8 down to 1 across the
// rank range. All arithmetic is integral and a pure function of (id,
// nprocs, phase), so synthesized profiles are deterministic across
// processes and platforms.
func weight(id, nprocs, phase int) uint64 {
	rank := (id*31 + 7 + phase*(nprocs/3+1)) % nprocs
	return max(uint64(8*nprocs/(nprocs+8*rank)), 1)
}

// SynthesizeProfile produces exact call-edge counts for the program
// Generate(cfg) describes, with phase selecting which region of the
// program is hot. Counts propagate top-down over the call DAG — each
// procedure's invocation count flows to its callees, scaled by the
// callee's weight.
func SynthesizeProfile(cfg Config, phase int) *parv.Profile {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	procs, _ := buildLayout(cfg, rng)
	nprocs := len(procs)

	inv := make([]uint64, nprocs)
	edges := make(map[parv.EdgeKey]uint64)
	add := func(caller string, callee int, n uint64) {
		if n == 0 {
			return
		}
		if n > countCap {
			n = countCap
		}
		edges[parv.EdgeKey{Caller: caller, Callee: procs[callee].name}] += n
		if inv[callee] += n; inv[callee] > countCap {
			inv[callee] = countCap
		}
	}

	// main drives the same roots emitMain calls, LoopIters times each,
	// scaled by the root's weight.
	for i := 0; i < 6 && i < nprocs; i++ {
		p := procs[i*7%nprocs]
		add("main", p.id, uint64(cfg.LoopIters)*weight(p.id, nprocs, phase))
	}

	// Propagate down the DAG. Procedure i calls only higher indexes, so a
	// single pass in id order sees every caller's final count before its
	// callees. Each call-site edge carries the caller's invocation count
	// scaled by the callee's weight, normalized by the middle weight (4).
	for _, p := range procs {
		n := inv[p.id]
		if n == 0 {
			continue
		}
		for _, c := range p.callees {
			m := n * weight(c, nprocs, phase) / 4
			if m == 0 {
				m = 1
			}
			add(p.name, c, m)
		}
		if p.deep {
			// Bounded self-recursion: the body recurs up to depth 3, and
			// the self arc never feeds the propagation (it would double
			// count the invocations already attributed by real callers).
			k := 3 * n
			if k > countCap {
				k = countCap
			}
			edges[parv.EdgeKey{Caller: p.name, Callee: p.name}] += k
		}
	}
	return &parv.Profile{Edges: edges}
}
