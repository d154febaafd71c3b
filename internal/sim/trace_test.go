package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"testing"

	"flm/internal/graph"
	"flm/internal/obs"
	"flm/internal/runcache"
)

// traceSystem builds a small gossip system for the obs tests.
func traceSystem(t testing.TB) *System {
	t.Helper()
	g := graph.Complete(4)
	inputs := map[string]Input{}
	for i, name := range g.Names() {
		inputs[name] = Input(EncodeInt(i))
	}
	sys, err := NewSystem(g, gossipProtocol(g, 2, inputs))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

// TestExecuteTracedMatchesUntraced pins the traced twin to the plain
// path: the same system executed with and without a tracer installed
// must record byte-identical runs (tracing observes, never perturbs).
func TestExecuteTracedMatchesUntraced(t *testing.T) {
	restoreCache := runcache.SetEnabled(false)
	defer restoreCache()

	plain, err := ExecuteCtx(context.Background(), traceSystem(t), 3, FullRecording)
	if err != nil {
		t.Fatalf("untraced execute: %v", err)
	}
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	restore := obs.SetTracer(tr)
	traced, err := ExecuteCtx(context.Background(), traceSystem(t), 3, FullRecording)
	restore()
	if err != nil {
		t.Fatalf("traced execute: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("tracer close: %v", err)
	}
	if got, want := encodeRun(traced), encodeRun(plain); got != want {
		t.Fatalf("traced run differs from untraced run:\ntraced:\n%s\nuntraced:\n%s", got, want)
	}
	// The trace must contain the sim.execute span with its cache attr.
	var seen bool
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("invalid trace line %q: %v", line, err)
		}
		if rec["name"] == "sim.execute" {
			seen = true
			attrs, _ := rec["attrs"].(map[string]any)
			if attrs["cache"] != "bypass" {
				t.Errorf("cache attr = %v, want bypass (run cache disabled)", attrs["cache"])
			}
		}
	}
	if !seen {
		t.Fatal("trace has no sim.execute span")
	}
}

// TestObsDisabledGuardZeroAlloc pins the disabled-path contract at the
// dispatch site: with no tracer installed, the branch ExecuteCtx takes
// before any instrumentation work is a single atomic load, and the
// guard itself never allocates.
func TestObsDisabledGuardZeroAlloc(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("a tracer is installed; disabled-path test is meaningless")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if obs.Enabled() {
			t.Error("tracer appeared mid-test")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled guard allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkObsDisabled is the zero-overhead-when-disabled benchmark:
// ExecuteCtx with no tracer installed, run cache off so every iteration
// exercises the full executor rather than a memoized hit. Compare
// against BenchmarkObsEnabled to see what a live tracer costs.
func BenchmarkObsDisabled(b *testing.B) {
	restoreCache := runcache.SetEnabled(false)
	defer restoreCache()
	sys := traceSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteCtx(context.Background(), sys, 3, FullRecording); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsEnabled is the same workload with a tracer draining to
// io.Discard: the measured delta vs BenchmarkObsDisabled is the whole
// cost of span assembly and JSONL encoding on this path.
func BenchmarkObsEnabled(b *testing.B) {
	restoreCache := runcache.SetEnabled(false)
	defer restoreCache()
	tr := obs.NewTracer(io.Discard)
	restore := obs.SetTracer(tr)
	defer restore()
	sys := traceSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteCtx(context.Background(), sys, 3, FullRecording); err != nil {
			b.Fatal(err)
		}
	}
}
