//go:build !race

package sim

import (
	"context"
	"testing"

	"flm/internal/obs"
	"flm/internal/runcache"
)

// The race detector's instrumentation allocates on its own, and not
// deterministically, so allocation-count tests are built only without
// it; `make verify-race` still runs them through the plain `make
// verify` it starts with.

// TestExecuteUntracedAllocsLikeExecutor pins the zero-cost disabled
// path: with no tracer installed and the run cache off, ExecuteCtx must
// allocate exactly what executeCore allocates, so its span, counters
// and cache dispatch cost nothing until a tracer is installed. Each
// iteration builds a fresh system on both sides (the executor's
// contract), which both sides pay alike.
func TestExecuteUntracedAllocsLikeExecutor(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("a tracer is installed; disabled-path test is meaningless")
	}
	restoreCache := runcache.SetEnabled(false)
	defer restoreCache()
	ctx := context.Background()
	allocs := func(exec func(*System) (*Run, error)) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := exec(traceSystem(t)); err != nil {
				t.Fatal(err)
			}
		})
	}
	public := allocs(func(sys *System) (*Run, error) { return ExecuteCtx(ctx, sys, 3, FullRecording) })
	body := allocs(func(sys *System) (*Run, error) { return executeCore(ctx, sys, 3, FullRecording, false) })
	if public != body {
		t.Fatalf("untraced ExecuteCtx allocates %v objects per run, executeCore %v", public, body)
	}
}
