package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTrace writes a synthetic JSONL trace fixture.
func writeTrace(t *testing.T, name string, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// baseTrace is a small healthy trace: two cache-hitting executions, one
// miss, a sweep, and a final metrics line.
func baseTrace(t *testing.T, name string) string {
	return writeTrace(t, name,
		`{"t":"span","id":1,"name":"sim.execute","start_us":0,"dur_us":100,"attrs":{"cache":"hit","messages":10,"bytes":200}}`,
		`{"t":"span","id":2,"name":"sim.execute","start_us":100,"dur_us":100,"attrs":{"cache":"hit","messages":10,"bytes":200}}`,
		`{"t":"span","id":3,"name":"sim.execute","start_us":200,"dur_us":300,"attrs":{"cache":"miss","messages":10,"bytes":200}}`,
		`{"t":"span","id":4,"name":"sweep.map","start_us":0,"dur_us":500,"attrs":{"trials":3}}`,
		`{"t":"metrics","at_us":600,"counters":{"sim.exec.runs":1,"sweep.trials":3},"gauges":{"runcache.sim.run.entries":3}}`,
	)
}

func TestStatsDiffIdentical(t *testing.T) {
	old := baseTrace(t, "old.jsonl")
	cur := baseTrace(t, "new.jsonl")
	out, code := capture(t, "stats", "-diff", old, cur)
	if code != 0 {
		t.Fatalf("identical traces: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "no drift beyond threshold") {
		t.Errorf("output lacks the clean verdict:\n%s", out)
	}
}

// TestStatsDiffRegression injects the regression the gate exists for: a
// cache that stopped hitting. The served rate drops 66.7 -> 0 pp and
// the run counter triples, both far past the default threshold.
func TestStatsDiffRegression(t *testing.T) {
	old := baseTrace(t, "old.jsonl")
	cur := writeTrace(t, "new.jsonl",
		`{"t":"span","id":1,"name":"sim.execute","start_us":0,"dur_us":300,"attrs":{"cache":"miss","messages":10,"bytes":200}}`,
		`{"t":"span","id":2,"name":"sim.execute","start_us":300,"dur_us":300,"attrs":{"cache":"miss","messages":10,"bytes":200}}`,
		`{"t":"span","id":3,"name":"sim.execute","start_us":600,"dur_us":300,"attrs":{"cache":"miss","messages":10,"bytes":200}}`,
		`{"t":"span","id":4,"name":"sweep.map","start_us":0,"dur_us":900,"attrs":{"trials":3}}`,
		`{"t":"metrics","at_us":1000,"counters":{"sim.exec.runs":3,"sweep.trials":3},"gauges":{"runcache.sim.run.entries":9}}`,
	)
	out, code := capture(t, "stats", "-diff", old, cur)
	if code != 3 {
		t.Fatalf("regressed trace: exit %d, want 3\n%s", code, out)
	}
	for _, want := range []string{"run-cache served-rate", "sim.exec.runs", "drifted beyond"} {
		if !strings.Contains(out, want) {
			t.Errorf("regression report missing %q:\n%s", want, out)
		}
	}
	// Gauges are point-in-time readings and must never gate.
	if strings.Contains(out, "runcache.sim.run.entries") {
		t.Errorf("gauge leaked into the diff:\n%s", out)
	}
}

// TestStatsDiffAppearVanish pins infinite drift: a counter present only
// on one side always gates, and renders as ∞.
func TestStatsDiffAppearVanish(t *testing.T) {
	old := writeTrace(t, "old.jsonl",
		`{"t":"span","id":1,"name":"core.splice","start_us":0,"dur_us":10}`,
		`{"t":"metrics","at_us":20,"counters":{"gone.counter":5}}`,
	)
	cur := writeTrace(t, "new.jsonl",
		`{"t":"span","id":1,"name":"core.splice","start_us":0,"dur_us":10}`,
		`{"t":"metrics","at_us":20,"counters":{"fresh.counter":5}}`,
	)
	out, code := capture(t, "stats", "-diff", "-threshold", "99", old, cur)
	if code != 3 {
		t.Fatalf("appear/vanish: exit %d, want 3\n%s", code, out)
	}
	for _, want := range []string{"gone.counter", "fresh.counter", "∞"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestStatsDiffNoTiming checks -notiming drops the span-share family: a
// trace whose only difference is where the wall time went is clean.
func TestStatsDiffNoTiming(t *testing.T) {
	old := writeTrace(t, "old.jsonl",
		`{"t":"span","id":1,"name":"sim.execute","start_us":0,"dur_us":100,"attrs":{"cache":"hit"}}`,
		`{"t":"span","id":2,"name":"sweep.map","start_us":0,"dur_us":100}`,
	)
	cur := writeTrace(t, "new.jsonl",
		`{"t":"span","id":1,"name":"sim.execute","start_us":0,"dur_us":900,"attrs":{"cache":"hit"}}`,
		`{"t":"span","id":2,"name":"sweep.map","start_us":0,"dur_us":100}`,
	)
	if out, code := capture(t, "stats", "-diff", old, cur); code != 3 {
		t.Fatalf("timing drift with shares on: exit %d, want 3\n%s", code, out)
	}
	if out, code := capture(t, "stats", "-diff", "-notiming", old, cur); code != 0 {
		t.Fatalf("-notiming: exit %d, want 0\n%s", code, out)
	}
}

func TestStatsDiffUsageAndErrors(t *testing.T) {
	if out, code := capture(t, "stats", "-diff", "only-one.jsonl"); code != 2 {
		t.Fatalf("one arg: exit %d\n%s", code, out)
	}
	good := baseTrace(t, "good.jsonl")
	if out, code := capture(t, "stats", "-diff", good, filepath.Join(t.TempDir(), "absent.jsonl")); code != 1 {
		t.Fatalf("missing file: exit %d\n%s", code, out)
	}
}

func TestRelDrift(t *testing.T) {
	if d := relDrift(0, 0); d != 0 {
		t.Errorf("relDrift(0,0) = %v", d)
	}
	if d := relDrift(0, 5); !math.IsInf(d, 1) {
		t.Errorf("relDrift(0,5) = %v, want +Inf", d)
	}
	if d := relDrift(100, 93); d != 7 {
		t.Errorf("relDrift(100,93) = %v, want 7", d)
	}
	if d := relDrift(100, 107); d != 7 {
		t.Errorf("relDrift(100,107) = %v, want 7", d)
	}
}
