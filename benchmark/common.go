package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"ipra"
	"ipra/internal/parv"
	"ipra/internal/progen"
)

// Program shapes. The programs are fixed, as the progen presets are, so
// their executable sizes are the same on every run and can carry a tight
// bound; the seed varies what happens to them (edit draws, cell order,
// request mix).
var (
	// buildShape is the cold-build and edit-loop program: the progen
	// "medium" preset (seed 2000; 40 procedures per module, about five
	// globals per module) at 24 modules instead of 50, so one cold build
	// takes ~0.15 s on a 2-CPU box and a 20 s window holds 100 of them.
	buildShape = progen.Config{Seed: 2000, Modules: 24, ProcsPerModule: 40, Globals: 128,
		SubsystemSize: 7, Recursion: true, IndirectCalls: true, Statics: true, LoopIters: 2}
	// servedShape is the progen "small" preset: 25 modules × 20
	// procedures, 64 globals.
	servedShape = progen.Config{Seed: 500, Modules: 25, ProcsPerModule: 20, Globals: 64,
		SubsystemSize: 6, Recursion: true, IndirectCalls: true, Statics: true, LoopIters: 2}
	// toyShape replaces both in the package test.
	toyShape = progen.Config{Seed: 1, Modules: 4, ProcsPerModule: 5, Globals: 8,
		SubsystemSize: 3, Recursion: true, IndirectCalls: true, Statics: true, LoopIters: 1}
)

// shapeFor returns the program shape a workload uses.
func shapeFor(o opts, shape progen.Config) progen.Config {
	if o.toy {
		return toyShape
	}
	return shape
}

func toSources(mods []progen.Module) []ipra.Source {
	src := make([]ipra.Source, len(mods))
	for i, m := range mods {
		src[i] = ipra.Source{Name: m.Name, Text: []byte(m.Text)}
	}
	return src
}

// preset returns a named configuration compiled with jobs workers.
func preset(name string, jobs int) ipra.Config {
	cfg := ipra.MustPreset(name)
	cfg.Jobs = jobs
	return cfg
}

// exeBytes is the canonical executable encoding: equal bytes mean equal
// programs.
func exeBytes(exe *parv.Executable) ([]byte, error) {
	var buf bytes.Buffer
	if err := parv.EncodeExecutable(&buf, exe); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// setupRepeats is how many times a workload sets up; setup_s is the
// median and the last set-up is the one measured.
const setupRepeats = 5

// measureSetup times setup setupRepeats times. between, when not nil,
// releases what one set-up made before the next, untimed.
func measureSetup(r *result, setup, between func() error) error {
	ds := make([]time.Duration, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && between != nil {
			if err := between(); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
		}
		start := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, time.Since(start))
	}
	r.set("setup_s", medianDur(ds).Seconds(), "s")
	return nil
}

// deck deals its cards in a seeded order, reshuffling the full deck each
// time it runs out, so that every deck's worth of draws holds each card as
// often as the deck does: the seed varies the order of a workload's
// operation kinds, not their mix, and the mix sets the percentiles.
type deck[T any] struct {
	cards []T
	rng   *rand.Rand
	next  int
}

func newDeck[T any](rng *rand.Rand, cards ...T) *deck[T] {
	return &deck[T]{cards: append([]T(nil), cards...), rng: rng, next: len(cards)}
}

func (d *deck[T]) draw() T {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// toyOps bounds the operations of a toy run.
const toyOps = 2

// minOps is the sample count a window keeps going for, up to twice its
// length, so that ten samples lie beyond the 90th percentile.
const minOps = 100

// window calls op with increasing indexes until the measured window has
// passed (toy runs stop after toyOps calls). op returns an error only
// when the workload cannot go on; failed operations are counted on the
// result instead.
func window(o opts, op func(i int) error) error {
	start := time.Now()
	length := time.Duration(o.seconds * float64(time.Second))
	for i := 0; ; i++ {
		if o.toy && i >= toyOps {
			return nil
		}
		if el := time.Since(start); !o.toy && i > 0 && el > length && (i >= minOps || el > 2*length) {
			return nil
		}
		if err := op(i); err != nil {
			return err
		}
	}
}
