package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flm"
	"flm/internal/obs"
	"flm/internal/sweep"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// normalizeTrace strips the nondeterministic fields of a trace —
// timestamps, durations, and the histogram sums/maxes derived from them
// — and re-marshals each record with sorted keys, so the remainder
// (span structure, names, attributes, counters) is byte-stable across
// runs and machines.
func normalizeTrace(t *testing.T, raw []byte) string {
	t.Helper()
	var b strings.Builder
	for i, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("trace line %d invalid: %q: %v", i+1, line, err)
		}
		delete(rec, "start_us")
		delete(rec, "dur_us")
		delete(rec, "at_us")
		if attrs, ok := rec["attrs"].(map[string]any); ok {
			// Worker utilization attrs are wall-clock readings.
			delete(attrs, "busy_us")
			delete(attrs, "idle_us")
		}
		if hists, ok := rec["hists"].(map[string]any); ok {
			counts := map[string]any{}
			for name, h := range hists {
				if hm, ok := h.(map[string]any); ok {
					counts[name] = hm["count"]
				}
			}
			rec["hists"] = counts
		}
		out, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("re-marshal line %d: %v", i+1, err)
		}
		b.Write(out)
		b.WriteByte('\n')
	}
	return b.String()
}

// traceE1 produces a deterministic E1 trace: run cache off (every
// execution is a real one, so the cache attrs are stable), one sweep
// worker, metrics reset so earlier tests in this package don't leak
// counter values into the final metrics line.
func traceE1(t *testing.T) []byte {
	t.Helper()
	prevWorkers := sweep.SetWorkers(1)
	t.Cleanup(func() { sweep.SetWorkers(prevWorkers) })
	restoreCache := flm.SetRunCacheEnabled(false)
	t.Cleanup(restoreCache)
	flm.ResetRunCaches()
	obs.Metrics.Reset()

	path := filepath.Join(t.TempDir(), "e1.jsonl")
	out, code := capture(t, "run", "-trace", path, "E1")
	if code != 0 {
		t.Fatalf("run -trace E1 exited %d:\n%s", code, out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	return raw
}

// TestTraceGoldenE1 pins the complete normalized trace of a small E1
// run: every span (execute, splice, chain link, experiment), its
// attributes, and the final metrics line. Regenerate intentionally with
// `go test ./cmd/flm -run TestTraceGoldenE1 -update` after changing the
// instrumentation.
func TestTraceGoldenE1(t *testing.T) {
	got := normalizeTrace(t, traceE1(t))
	golden := filepath.Join("testdata", "e1_trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("normalized E1 trace diverges from %s (re-run with -update if intentional)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// traceChaos produces a deterministic chaos trace: seed 1 over six
// trials on one worker yields five green trials and one expected
// violation, so the trace exercises the chaos surface end to end —
// per-trial outcome events, the shrink span, and the sweep.worker row.
func traceChaos(t *testing.T) []byte {
	t.Helper()
	prevWorkers := sweep.SetWorkers(1)
	t.Cleanup(func() { sweep.SetWorkers(prevWorkers) })
	restoreCache := flm.SetRunCacheEnabled(false)
	t.Cleanup(restoreCache)
	flm.ResetRunCaches()
	obs.Metrics.Reset()

	path := filepath.Join(t.TempDir(), "chaos.jsonl")
	out, code := capture(t, "chaos", "-trace", path, "-seed", "1", "-trials", "6", "-workers", "1")
	if code != 0 {
		t.Fatalf("chaos -trace exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "expected-violations=1") {
		t.Fatalf("fixture drifted: seed 1 x 6 trials should produce exactly one expected violation\n%s", out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	return raw
}

// TestTraceGoldenChaos pins the normalized trace of a small chaos run:
// the chaos.run/chaos.shrink spans, every chaos.trial outcome event and
// its attributes, the sweep.worker row, and the final metrics line.
// Regenerate with `go test ./cmd/flm -run TestTraceGoldenChaos -update`.
func TestTraceGoldenChaos(t *testing.T) {
	got := normalizeTrace(t, traceChaos(t))
	golden := filepath.Join("testdata", "chaos_trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("normalized chaos trace diverges from %s (re-run with -update if intentional)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestTraceContainsCoreSpans is the acceptance check in test form: an E1
// trace must contain execute, splice, and chain-link spans, each
// execute span carrying a cache attribute.
func TestTraceContainsCoreSpans(t *testing.T) {
	raw := traceE1(t)
	seen := map[string]int{}
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var rec struct {
			T     string         `json:"t"`
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("invalid line %q: %v", line, err)
		}
		seen[rec.Name]++
		if rec.Name == "sim.execute" {
			if _, ok := rec.Attrs["cache"].(string); !ok {
				t.Errorf("%s span lacks a cache attribute: %v", rec.Name, rec.Attrs)
			}
		}
	}
	for _, name := range []string{"sim.execute", "core.splice", "core.chain.link", "flm.experiment"} {
		if seen[name] == 0 {
			t.Errorf("trace has no %q span", name)
		}
	}
}

// TestStatsCommand feeds a fresh E1 trace through flm stats and checks
// the rendered sections: cache hit-rate line, the no-sweep fallback (E1
// sweeps nothing), and the chain summary.
func TestStatsCommand(t *testing.T) {
	prevWorkers := sweep.SetWorkers(1)
	t.Cleanup(func() { sweep.SetWorkers(prevWorkers) })
	path := filepath.Join(t.TempDir(), "e1.jsonl")
	if out, code := capture(t, "run", "-trace", path, "E1"); code != 0 {
		t.Fatalf("run -trace E1 exited %d:\n%s", code, out)
	}
	out, code := capture(t, "stats", path)
	if code != 0 {
		t.Fatalf("stats exited %d:\n%s", code, out)
	}
	for _, want := range []string{
		"hit rate",
		"run cache",
		"no sweep activity",
		"contradiction chains",
		"sim.execute",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}

// TestStatsErrors pins the failure modes: usage, missing file, garbage
// input, and an empty trace all exit nonzero.
func TestStatsErrors(t *testing.T) {
	if out, code := capture(t, "stats"); code != 2 || !strings.Contains(out, "usage") {
		t.Errorf("bare stats: exit %d, output %q", code, out)
	}
	if _, code := capture(t, "stats", filepath.Join(t.TempDir(), "absent.jsonl")); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := capture(t, "stats", bad); code != 1 || !strings.Contains(out, "line 1") {
		t.Errorf("garbage file: exit %d, output %q", code, out)
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := capture(t, "stats", empty); code != 1 || !strings.Contains(out, "no trace records") {
		t.Errorf("empty file: exit %d, output %q", code, out)
	}
}

// TestTraceEnvFallback checks the FLM_TRACE env var stands in for the
// -trace flag.
func TestTraceEnvFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "env.jsonl")
	t.Setenv(TraceEnv, path)
	if out, code := capture(t, "prove", "majority"); code != 0 {
		t.Fatalf("prove exited %d:\n%s", code, out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("FLM_TRACE file not written: %v", err)
	}
	if !bytes.Contains(raw, []byte(`"core.splice"`)) {
		t.Error("env-var trace lacks core.splice spans")
	}
}
