// Package pipeline provides the bounded worker pool that fans the
// compiler's module-at-a-time phases across CPUs.
//
// Both compiler phases are module-at-a-time and order-independent (§2,
// §4.3 of the paper) — only the program analyzer in the middle needs a
// whole-program view. The pool exploits that: callers hand it an index
// range and a per-index function, results go into position-indexed
// slices, and the output is byte-identical to a sequential run no matter
// how the work interleaves.
//
// Error reporting is deterministic too: when several indices fail, the
// error for the lowest index is returned, which is the same error a
// sequential left-to-right run would have stopped on.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"ipra/internal/telemetry"
)

// Workers resolves a -j style job-count request: 0 means one worker per
// CPU (GOMAXPROCS), anything below 1 means sequential, and positive
// values are taken as given.
func Workers(j int) int {
	if j == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if j < 1 {
		return 1
	}
	return j
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// (after Workers resolution). With one worker it degenerates to a plain
// loop that stops at the first error, exactly like the sequential code it
// replaces. With more, every index runs regardless of failures — modules
// compile independently — and the lowest-index error is returned so
// parallel and sequential runs report the same failure. A panic in any
// worker is re-raised on the calling goroutine.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), workers, n, func(_ context.Context, i int) error {
		return fn(i)
	})
}

// ForEachCtx is ForEach with a context threaded to every item. When the
// context carries a telemetry tracer, each pool worker runs its items
// under a "worker" span, so per-item spans started inside fn group by the
// worker that executed them; without a tracer the context passes through
// untouched and nothing is allocated for it.
func ForEachCtx(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	panics := make([]any, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wctx, wspan := telemetry.StartSpan(ctx, "worker")
			wspan.SetInt("worker", int64(w))
			defer wspan.End()
			for i := range idx {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = r
						}
					}()
					errs[i] = fn(wctx, i)
				}()
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	// A worker's panic is a programming error in fn, not an input
	// condition: every stage the pool runs reports bad input as an error
	// (decoders and phase 2 validate what they read). It is re-raised here,
	// on the caller's goroutine and naming the item, rather than crashing
	// the process from a worker or being turned into an error that hides
	// the bug.
	for i, r := range panics {
		if r != nil {
			panic(fmt.Sprintf("pipeline: worker panic on item %d: %v", i, r))
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn over every element of in on at most workers goroutines and
// returns the results in input order. Error semantics match ForEach.
func Map[T, R any](workers int, in []T, fn func(i int, v T) (R, error)) ([]R, error) {
	return MapCtx(context.Background(), workers, in, func(_ context.Context, i int, v T) (R, error) {
		return fn(i, v)
	})
}

// MapCtx is Map with a context threaded to every item (ForEachCtx
// semantics: per-worker telemetry spans when tracing is enabled).
func MapCtx[T, R any](ctx context.Context, workers int, in []T, fn func(ctx context.Context, i int, v T) (R, error)) ([]R, error) {
	out := make([]R, len(in))
	err := ForEachCtx(ctx, workers, len(in), func(ctx context.Context, i int) error {
		r, err := fn(ctx, i, in[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
