// Package sweep is the parallel fan-out engine for the repository's
// embarrassingly parallel workloads: attack-panel sweeps, bit-pattern
// enumerations, frontier censuses, and corollary grids. Each trial in
// those sweeps builds its own System (or timed system), so no mutable
// state crosses trial boundaries and the only coordination needed is
// bounded fan-out plus deterministic collection.
//
// The engine guarantees:
//
//   - results are returned in trial-index order, regardless of which
//     worker finished first;
//   - the reported error is the one from the LOWEST failing trial index
//     (exactly what a sequential loop would have returned first), so
//     parallel and sequential sweeps are observationally identical;
//   - once a trial fails, workers stop picking up new trials (first-error
//     cancellation), but already-running trials complete;
//   - fan-out is bounded by Workers() goroutines per call.
package sweep

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flm/internal/obs"
)

// WorkersEnv is the environment variable that overrides the worker count
// for every sweep (0 or unset means GOMAXPROCS).
const WorkersEnv = "FLM_WORKERS"

// overrideWorkers is a process-wide override set by SetWorkers; 0 means
// "use the environment / GOMAXPROCS".
var overrideWorkers atomic.Int64

// SetWorkers fixes the worker count for subsequent sweeps (n <= 0
// restores the default resolution order). It returns the previous
// override. Intended for benchmarks and tests that pin parallelism.
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(overrideWorkers.Swap(int64(n)))
}

// warnOnce gates the one-time malformed-FLM_WORKERS warning; warnf is a
// test seam (defaults to stderr).
var (
	warnOnce sync.Once
	warnf    = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format, args...) }
)

// Workers reports the number of workers a sweep will use: the SetWorkers
// override if set, else FLM_WORKERS if set to a positive integer, else
// GOMAXPROCS. A malformed or negative FLM_WORKERS value falls back to
// GOMAXPROCS with a one-time warning ("0" and "" are valid spellings of
// the default and warn nothing).
func Workers() int {
	if n := int(overrideWorkers.Load()); n > 0 {
		return n
	}
	if s := os.Getenv(WorkersEnv); s != "" {
		n, err := strconv.Atoi(s)
		switch {
		case err == nil && n > 0:
			return n
		case err != nil || n < 0:
			warnOnce.Do(func() {
				warnf("sweep: ignoring invalid %s=%q (want a non-negative integer); using GOMAXPROCS=%d\n",
					WorkersEnv, s, runtime.GOMAXPROCS(0))
			})
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(i) for every i in [0, n) across Workers() goroutines and
// returns the results in index order. If any call returns an error, the
// sweep is cancelled (no new trials start) and Map returns the error of
// the lowest failing index together with the full result slice gathered
// so far; results at indices that never ran are the zero value.
//
// fn must be safe to call concurrently with distinct indices. Trials must
// not share mutable state; everything a trial touches should be built
// inside fn or be read-only (graphs, builders, parameter structs).
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	workers := min(Workers(), n)
	ctx := context.Background()
	if obs.Enabled() {
		var sweepSpan *obs.Span
		ctx, sweepSpan = obs.StartSpan(ctx, "sweep.map",
			obs.Int("trials", n), obs.Int("workers", workers))
		mSweeps.Inc()
		defer sweepSpan.End()
	}
	var (
		failed   atomic.Bool // set once any trial errors
		mu       sync.Mutex  // guards firstErr/firstIdx
		firstErr error
		firstIdx = n
	)
	pool(ctx, n, workers, failed.Load, func(i int) bool {
		v, err := fn(i)
		if err == nil {
			results[i] = v
			return false
		}
		failed.Store(true)
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		return true
	})
	return results, firstErr
}

// pool is the one worker loop behind Map and Isolated. Workers claim
// indices in order from a shared atomic counter and run trial(i) on each
// until the indices run out or stop reports true; trial reports whether
// the trial failed. Worker 0 runs on the calling goroutine, so a
// one-worker sweep starts no goroutine. Under tracing each worker opens a
// sweep.worker span. pool returns how many indices were claimed: a
// stopped sweep never started the trials from that index on.
func pool(ctx context.Context, n, workers int, stop func() bool, trial func(i int) bool) int {
	var next atomic.Int64 // next trial index to claim
	traced := obs.Enabled()
	loop := func(w int) {
		var wo *workerObs
		var ws *obs.Span
		var started time.Time
		if traced {
			_, ws = obs.StartSpan(ctx, "sweep.worker", obs.Int("worker", w))
			started = time.Now()
			wo = &workerObs{}
		}
		for !stop() {
			i := int(next.Add(1)) - 1
			if i >= n {
				break
			}
			var t0 time.Time
			if wo != nil {
				t0 = wo.begin()
			}
			failed := trial(i)
			if wo != nil {
				wo.record(time.Since(t0))
				if failed {
					wo.fault()
				}
			}
		}
		if wo != nil {
			wo.finish(ws, started)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			loop(w)
		}(w)
	}
	loop(0)
	wg.Wait()
	return min(int(next.Load()), n)
}
