package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"time"

	"ipra"
	"ipra/internal/progen"
	"ipra/internal/telemetry"
)

// editMix is the mix of edit kinds in every 20 edits (40/25/25/10): body
// edits move reference counts, call edits add a call-graph edge, cycle
// edits add a recursion cycle (a declared fallback to full analysis), and
// no-op edits touch a comment.
var editMix = []struct {
	kind  progen.EditKind
	count int
}{
	{progen.EditBody, 8},
	{progen.EditNoop, 5},
	{progen.EditCall, 5},
	{progen.EditCycle, 2},
}

func editKinds(rng *rand.Rand) *deck[progen.EditKind] {
	var cards []progen.EditKind
	for _, m := range editMix {
		for i := 0; i < m.count; i++ {
			cards = append(cards, m.kind)
		}
	}
	return newDeck(rng, cards...)
}

// runEditLoop measures warm incremental rebuilds (§5). Version i of the
// program is the generated base with one seeded edit; each operation
// rebuilds version i over the build directory that holds version i-1, so
// it reverts one edit and applies another.
// Every tenth version and the last are checked, after the window, against
// a clean in-memory build of the same sources.
//
// Traced, a second build directory follows the same versions with a
// tracer attached; the two builds of a version alternate in order.
func runEditLoop(ctx context.Context, o opts, r *result) error {
	shape := shapeFor(o, buildShape)
	cfg := preset("C", o.jobs)
	ndirs := 1
	if o.trace {
		ndirs = 2
	}
	var base []progen.Module
	var dirs []string
	var baseExe []byte
	setups := 0
	err := measureSetup(r, func() error {
		ipra.ResetPhase1Cache()
		base = progen.Generate(shape)
		src := toSources(base)
		dirs = dirs[:0]
		for k := 0; k < ndirs; k++ {
			dir := filepath.Join(o.work, fmt.Sprintf("edit-%d-%d", setups, k))
			res, err := ipra.Build(ctx, src, cfg, ipra.WithBuildDir(dir))
			if err != nil {
				return err
			}
			if baseExe, err = exeBytes(res.Exe); err != nil {
				return err
			}
			dirs = append(dirs, dir)
		}
		setups++
		return nil
	}, nil)
	if err != nil {
		return err
	}
	r.set("exe_bytes", float64(len(baseExe)), "bytes")

	version := func(v int, kind progen.EditKind) []ipra.Source {
		mods, _ := progen.Mutate(shape, base, o.seed*1000+int64(v), kind)
		return toSources(mods)
	}
	type check struct {
		v    int
		kind progen.EditKind
		exe  []byte
	}
	var checks []check
	var last check
	plain := opTimes{jobs: o.jobs}
	var traced []time.Duration
	byKind := make(map[progen.EditKind][]time.Duration)
	spans := newSpanTimes()
	var p1, p2, ops, fallbacks int
	var websReused, websRebuilt int
	kinds := editKinds(rand.New(rand.NewSource(o.seed)))

	err = window(o, func(i int) error {
		v := i + 1
		kind := kinds.draw()
		src := version(v, kind)
		r.Attempted++
		build := func(dir string, tracer *telemetry.Tracer) (*ipra.BuildResult, time.Duration, error) {
			bopts := []ipra.BuildOption{ipra.WithBuildDir(dir)}
			if tracer != nil {
				bopts = append(bopts, ipra.WithTelemetry(tracer))
			}
			start := time.Now()
			res, err := ipra.Build(ctx, src, cfg, bopts...)
			return res, time.Since(start), err
		}
		var tres *ipra.BuildResult
		var td time.Duration
		var terr error
		if o.trace && v%2 == 1 {
			tres, td, terr = build(dirs[1], telemetry.New())
		}
		res, d, err := build(dirs[0], nil)
		if o.trace && v%2 == 0 {
			tres, td, terr = build(dirs[1], telemetry.New())
		}
		if err == nil {
			err = terr
		}
		if err != nil {
			r.fail("version %d (%s): %v", v, kind, err)
			return nil
		}
		byKind[kind] = append(byKind[kind], d)
		if tres != nil {
			traced = append(traced, td)
			spans.add(tres.Report)
		}
		out := res.Incremental
		ops++
		p1 += out.Phase1Rebuilds
		p2 += out.Phase2Rebuilds
		if a := out.Analyzer; a != nil {
			if a.Fallback != "" {
				fallbacks++
			}
			websReused += a.WebsReused
			websRebuilt += a.WebsRebuilt
		}
		exe, err := exeBytes(res.Exe)
		if err != nil {
			return err
		}
		if tres != nil {
			if texe, err := exeBytes(tres.Exe); err != nil || !bytes.Equal(texe, exe) {
				r.fail("version %d (%s): the two build directories disagree", v, kind)
			}
		}
		last = check{v, kind, exe}
		if v%10 == 0 {
			checks = append(checks, last)
		}
		plain.add(d)
		return nil
	})
	if err != nil {
		return err
	}
	if last.v%10 != 0 && last.exe != nil {
		checks = append(checks, last)
	}
	for _, c := range checks {
		res, err := ipra.Build(ctx, version(c.v, c.kind), cfg)
		if err != nil {
			r.fail("clean build of version %d: %v", c.v, err)
			continue
		}
		if exe, err := exeBytes(res.Exe); err != nil || !bytes.Equal(exe, c.exe) {
			r.fail("version %d (%s): incremental executable differs from a clean build", c.v, c.kind)
		}
	}

	r.latency(&plain)
	r.setRate("ops_per_s", len(plain.op), sum(plain.op))
	for _, m := range editMix {
		r.timing("incremental."+string(m.kind)+"_ms", byKind[m.kind])
	}
	size, err := dirSize(dirs[0])
	if err != nil {
		return err
	}
	r.set("store_bytes", float64(size), "bytes")
	if ops > 0 {
		modules := float64(ops * len(base))
		r.set("incremental.phase1_rebuilds", float64(p1)/float64(ops), "count")
		r.set("incremental.phase2_rebuilds", float64(p2)/float64(ops), "count")
		r.set("incremental.phase2_reuse_ratio", 1-float64(p2)/modules, "ratio")
		r.set("core.fallbacks", float64(fallbacks), "count")
		if websReused+websRebuilt > 0 {
			r.set("core.webs_reused_ratio", float64(websReused)/float64(websReused+websRebuilt), "ratio")
		}
	}
	if !o.trace {
		return nil
	}
	setOverhead(r, traced, plain.op)
	setSpanMetrics(r, spans, len(traced))
	if n := float64(len(traced)); n > 0 {
		for _, s := range []string{"phase1", "diff", "phase2", "link", "persist"} {
			r.set("incremental."+s+"_ms", ms(spans.self["incremental/"+s])/n, "ms")
		}
		r.set("core.incremental_ms", ms(spans.total["incremental/analyze"])/n, "ms")
	}
	return layerProfile(ctx, o, r, [][]ipra.Source{toSources(base)}, 0)
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
