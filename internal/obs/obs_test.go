package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// record mirrors the JSONL schema for decoding in tests (and in the
// flm stats command, which keeps its own copy to stay decoupled).
type record struct {
	T       string         `json:"t"`
	ID      uint64         `json:"id"`
	Par     uint64         `json:"par"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	AtUS    int64          `json:"at_us"`
	Attrs   map[string]any `json:"attrs"`
}

func decodeAll(t *testing.T, data []byte) []record {
	t.Helper()
	var recs []record
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		recs = append(recs, r)
	}
	return recs
}

func TestSpanNestingAndAttrs(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	defer SetTracer(tr)()

	ctx, root := StartSpan(context.Background(), "root", Str("kind", "test"))
	ctx2, child := StartSpan(ctx, "child", Int("n", 42), Bool("ok", true), F64("x", 1.5))
	Event(ctx2, "ping", Str("msg", "hi\n\"quoted\""))
	child.SetAttrs(Int64("late", -7))
	child.End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	recs := decodeAll(t, buf.Bytes())
	// Order: event fires first, then child End, root End, metrics.
	if len(recs) != 4 {
		t.Fatalf("want 4 records, got %d", len(recs))
	}
	ev, ch, rt := recs[0], recs[1], recs[2]
	if ev.T != "event" || ev.Name != "ping" {
		t.Fatalf("first record should be the event, got %+v", ev)
	}
	if ch.Name != "child" || rt.Name != "root" {
		t.Fatalf("span order wrong: %q then %q", ch.Name, rt.Name)
	}
	if rt.Par != 0 {
		t.Errorf("root should have no parent, got %d", rt.Par)
	}
	if ch.Par != rt.ID {
		t.Errorf("child parent = %d, want root id %d", ch.Par, rt.ID)
	}
	if ev.Par != ch.ID {
		t.Errorf("event parent = %d, want child id %d", ev.Par, ch.ID)
	}
	if ch.Attrs["n"] != float64(42) || ch.Attrs["ok"] != true || ch.Attrs["x"] != 1.5 || ch.Attrs["late"] != float64(-7) {
		t.Errorf("child attrs wrong: %v", ch.Attrs)
	}
	if ev.Attrs["msg"] != "hi\n\"quoted\"" {
		t.Errorf("string escaping round-trip failed: %q", ev.Attrs["msg"])
	}
	if recs[3].T != "metrics" {
		t.Errorf("Close should append a metrics record, got %q", recs[3].T)
	}
}

func TestDisabledPathIsInert(t *testing.T) {
	defer SetTracer(nil)()
	if Enabled() {
		t.Fatal("no tracer installed but Enabled() = true")
	}
	ctx, sp := StartSpan(context.Background(), "x", Str("a", "b"))
	if sp != nil {
		t.Fatal("StartSpan should return a nil span while disabled")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("disabled StartSpan must not store a span in the context")
	}
	// All nil-span methods must be safe no-ops.
	sp.SetAttrs(Int("n", 1)).End()
	Event(ctx, "nothing")
}

// TestDisabledZeroAlloc pins the zero-overhead contract: the guard the
// instrumented hot paths run while tracing is off — Enabled, a nil
// StartSpan without attrs, and nil-span method calls — allocates
// nothing. (TestExecuteUntracedAllocsLikeExecutor in internal/sim and
// TestSpliceUntracedAllocsLikeBody in internal/core pin the full
// executor and splice paths.)
func TestDisabledZeroAlloc(t *testing.T) {
	defer SetTracer(nil)()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		if Enabled() {
			t.Fatal("tracer unexpectedly installed")
		}
		_, sp := StartSpan(ctx, "hot")
		sp.SetAttrs()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %v allocs/op, want 0", allocs)
	}
}

func TestConcurrentSpansDoNotInterleave(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	defer SetTracer(tr)()

	const goroutines, spans = 8, 200
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				ctx, sp := StartSpan(context.Background(), "worker",
					Int("g", g), Int("i", i), Str("payload", strings.Repeat("x", 100)))
				Event(ctx, "tick")
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	recs := decodeAll(t, buf.Bytes()) // fails on any interleaved line
	want := goroutines*spans*2 + 1    // spans + events + metrics
	if len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}
}

func TestSpanSurvivesTracerSwap(t *testing.T) {
	var a, b bytes.Buffer
	trA := NewTracer(&a)
	restore := SetTracer(trA)
	_, sp := StartSpan(context.Background(), "crossing")
	// Swap tracers while the span is open: it must land in the tracer
	// that started it.
	SetTracer(NewTracer(&b))
	sp.End()
	restore()
	if err := trA.Err(); err != nil {
		t.Fatal(err)
	}
	trA.Close()
	if !strings.Contains(a.String(), `"name":"crossing"`) {
		t.Errorf("span lost on tracer swap; tracer A saw: %q", a.String())
	}
	if strings.Contains(b.String(), "crossing") {
		t.Errorf("span leaked into the new tracer")
	}
}

func TestWriteErrorStopsRecording(t *testing.T) {
	tr := NewTracer(failingWriter{})
	defer SetTracer(tr)()
	for i := 0; i < 10000; i++ { // overflow the 64 KiB buffer to force a flush
		_, sp := StartSpan(context.Background(), strings.Repeat("n", 64))
		sp.End()
	}
	if tr.Close() == nil {
		t.Fatal("Close should surface the write error")
	}
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, errFail }

var errFail = &json.UnsupportedValueError{Str: "sink failed"}
