package main

import (
	"bytes"
	"context"
	"time"

	"ipra"
	"ipra/internal/progen"
	"ipra/internal/telemetry"
)

// runColdBuild measures clean in-memory builds of one generated program
// under configuration C with the phase-1 cache disabled: every build
// parses, summarizes, analyzes, optimizes, generates code and links the
// whole program. Every build's executable must equal a sequential
// (Jobs: 1) build made during set-up.
//
// Traced, every other build carries a tracer; the untraced ones still
// give the latency, and the ratio of the two means is the tracing
// overhead. The layered replay of the program then gives the per-layer
// times.
func runColdBuild(ctx context.Context, o opts, r *result) error {
	shape := shapeFor(o, buildShape)
	cfg := preset("C", o.jobs)
	cfg.DisableCache = true
	var src []ipra.Source
	var ref []byte
	err := measureSetup(r, func() error {
		src = toSources(progen.Generate(shape))
		seq := cfg
		seq.Jobs = 1
		res, err := ipra.Build(ctx, src, seq)
		if err != nil {
			return err
		}
		if ref, err = exeBytes(res.Exe); err != nil {
			return err
		}
		_, err = ipra.Build(ctx, src, cfg)
		return err
	}, nil)
	if err != nil {
		return err
	}
	r.set("exe_bytes", float64(len(ref)), "bytes")

	plain := opTimes{jobs: o.jobs}
	var traced []time.Duration
	spans := newSpanTimes()
	err = window(o, func(i int) error {
		var tracer *telemetry.Tracer
		var bopts []ipra.BuildOption
		if o.trace && i%2 == 1 {
			tracer = telemetry.New()
			bopts = append(bopts, ipra.WithTelemetry(tracer))
		}
		start := time.Now()
		res, err := ipra.Build(ctx, src, cfg, bopts...)
		d := time.Since(start)
		r.Attempted++
		if err != nil {
			r.fail("build %d: %v", i, err)
			return nil
		}
		if tracer != nil {
			traced = append(traced, d)
			spans.add(res.Report)
		} else {
			plain.add(d)
		}
		got, err := exeBytes(res.Exe)
		if err != nil || !bytes.Equal(got, ref) {
			r.fail("build %d: executable differs from the Jobs=1 build", i)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.latency(&plain)
	r.setRate("ops_per_s", len(plain.op), sum(plain.op))
	if !o.trace {
		return nil
	}
	setOverhead(r, traced, plain.op)
	setSpanMetrics(r, spans, len(traced))
	return layerProfile(ctx, o, r, [][]ipra.Source{src}, medianDur(plain.op))
}
