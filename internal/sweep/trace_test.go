package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"flm/internal/obs"
)

// parseTrace closes the tracer and decodes every line, failing the test
// on any malformed record — the non-interleaving guarantee under
// concurrent workers.
func parseTrace(t *testing.T, tr *obs.Tracer, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	if err := tr.Close(); err != nil {
		t.Fatalf("tracer close: %v", err)
	}
	var recs []map[string]any
	for i, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d is not valid JSON (interleaved write?): %q: %v", i+1, line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// spansNamed filters records by span name.
func spansNamed(recs []map[string]any, name string) []map[string]any {
	var out []map[string]any
	for _, r := range recs {
		if r["t"] == "span" && r["name"] == name {
			out = append(out, r)
		}
	}
	return out
}

// TestMapTracedConcurrentJSONL runs a traced parallel sweep on 4 workers
// (the verify-race configuration) and checks that the trace is valid
// line-delimited JSON with one sweep.map span and one sweep.worker span
// per worker, whose trial counts sum to the sweep size.
func TestMapTracedConcurrentJSONL(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	restore := obs.SetTracer(tr)

	const n = 200
	results, err := Map(n, func(i int) (int, error) {
		time.Sleep(time.Duration(i%3) * time.Microsecond)
		return i * i, nil
	})
	restore()
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	for i, v := range results {
		if v != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, v, i*i)
		}
	}

	recs := parseTrace(t, tr, &buf)
	maps := spansNamed(recs, "sweep.map")
	if len(maps) != 1 {
		t.Fatalf("sweep.map spans = %d, want 1", len(maps))
	}
	workers := spansNamed(recs, "sweep.worker")
	if len(workers) != 4 {
		t.Fatalf("sweep.worker spans = %d, want 4", len(workers))
	}
	mapID := maps[0]["id"].(float64)
	trials := 0.0
	for _, w := range workers {
		if w["par"].(float64) != mapID {
			t.Errorf("worker span parent = %v, want sweep.map id %v", w["par"], mapID)
		}
		attrs := w["attrs"].(map[string]any)
		trials += attrs["trials"].(float64)
	}
	if int(trials) != n {
		t.Errorf("worker trial counts sum to %d, want %d", int(trials), n)
	}
}

// TestMapTracedSequentialWorkerZero pins the one-worker pool's booking:
// the whole sweep appears as worker 0.
func TestMapTracedSequentialWorkerZero(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	restore := obs.SetTracer(tr)
	_, err := Map(7, func(i int) (int, error) { return i, nil })
	restore()
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	recs := parseTrace(t, tr, &buf)
	workers := spansNamed(recs, "sweep.worker")
	if len(workers) != 1 {
		t.Fatalf("sweep.worker spans = %d, want 1", len(workers))
	}
	attrs := workers[0]["attrs"].(map[string]any)
	if attrs["worker"].(float64) != 0 || attrs["trials"].(float64) != 7 {
		t.Errorf("sequential sweep booked as worker %v with %v trials, want worker 0 with 7",
			attrs["worker"], attrs["trials"])
	}
}

// TestIsolatedTracedFaultCounts checks that a traced isolated sweep
// books per-worker fault counts and the sweep-level faults attribute.
func TestIsolatedTracedFaultCounts(t *testing.T) {
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	restore := obs.SetTracer(tr)
	boom := errors.New("boom")
	_, errs := Isolated(context.Background(), 10, Opts{}, func(i int) (int, error) {
		if i%2 == 0 {
			return 0, boom
		}
		return i, nil
	})
	restore()
	if got := FaultCount(errs); got != 5 {
		t.Fatalf("FaultCount = %d, want 5", got)
	}
	recs := parseTrace(t, tr, &buf)
	iso := spansNamed(recs, "sweep.isolated")
	if len(iso) != 1 {
		t.Fatalf("sweep.isolated spans = %d, want 1", len(iso))
	}
	if faults := iso[0]["attrs"].(map[string]any)["faults"].(float64); faults != 5 {
		t.Errorf("sweep.isolated faults = %v, want 5", faults)
	}
	workerFaults := 0.0
	for _, w := range spansNamed(recs, "sweep.worker") {
		workerFaults += w["attrs"].(map[string]any)["faults"].(float64)
	}
	if workerFaults != 5 {
		t.Errorf("per-worker faults sum to %v, want 5", workerFaults)
	}
}

// TestMapUntracedUnchanged guards the disabled path: with no tracer
// installed a sweep must write nothing and leave the obs metrics
// untouched.
func TestMapUntracedUnchanged(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("a tracer is installed")
	}
	before := obs.Metrics.Snapshot().Counters["sweep.trials"]
	if _, err := Map(16, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatalf("Map: %v", err)
	}
	after := obs.Metrics.Snapshot().Counters["sweep.trials"]
	if before != after {
		t.Errorf("untraced sweep moved sweep.trials from %d to %d", before, after)
	}
}
