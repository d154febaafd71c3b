package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flm"
)

// capture runs a command with its output and its errors in one buffer.
func capture(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	code := run(args, &buf, &buf)
	return buf.String(), code
}

func TestUsageAndErrors(t *testing.T) {
	tests := []struct {
		args     []string
		wantCode int
		want     string
	}{
		{nil, 2, "commands:"},
		{[]string{"help"}, 0, "commands:"},
		{[]string{"bogus"}, 2, "unknown command"},
		{[]string{"run"}, 2, "need at least one"},
		{[]string{"run", "E99"}, 2, "no experiment"},
		{[]string{"adequacy"}, 2, "usage"},
		{[]string{"adequacy", "x", "y"}, 2, "integers"},
		{[]string{"prove"}, 2, "usage"},
		{[]string{"prove", "nope"}, 2, "unknown device"},
	}
	for _, tt := range tests {
		out, code := capture(t, tt.args...)
		if code != tt.wantCode {
			t.Errorf("%v: exit %d, want %d", tt.args, code, tt.wantCode)
		}
		if !strings.Contains(out, tt.want) {
			t.Errorf("%v: output missing %q:\n%s", tt.args, tt.want, out)
		}
	}
}

// TestErrorsGoToErrOut: a failing command writes its reason to the
// error writer and nothing to its output, so a caller that discards the
// output (make trace-smoke does) still sees why it failed; help and
// results stay on the output.
func TestErrorsGoToErrOut(t *testing.T) {
	split := func(args ...string) (string, string, int) {
		var out, errOut bytes.Buffer
		code := run(args, &out, &errOut)
		return out.String(), errOut.String(), code
	}
	missing := filepath.Join(t.TempDir(), "missing", "t.jsonl")
	out, errOut, code := split("run", "-trace", missing, "E1")
	if code != 1 || out != "" || !strings.Contains(errOut, "run: trace: open "+missing) {
		t.Errorf("run -trace into a missing directory: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	for _, args := range [][]string{nil, {"bogus"}, {"run", "E99"}, {"adequacy", "x", "y"}, {"prove", "nope"}, {"stats"}} {
		if out, errOut, code := split(args...); code == 0 || out != "" || errOut == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", args, code, out, errOut)
		}
	}
	if out, errOut, code := split("help"); code != 0 || !strings.Contains(out, "commands:") || errOut != "" {
		t.Errorf("help: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	if out, errOut, code := split("adequacy", "4", "1"); code != 0 || !strings.Contains(out, "ADEQUATE") || errOut != "" {
		t.Errorf("adequacy 4 1: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
}

func TestList(t *testing.T) {
	out, code := capture(t, "list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"E1", "E7", "E14"} {
		if !strings.Contains(out, id) {
			t.Errorf("list missing %s", id)
		}
	}
}

func TestAdequacyBothSides(t *testing.T) {
	out, code := capture(t, "adequacy", "3", "1")
	if code != 0 || !strings.Contains(out, "INADEQUATE") {
		t.Errorf("K3 f=1: %q (exit %d)", out, code)
	}
	out, code = capture(t, "adequacy", "4", "1")
	if code != 0 || !strings.Contains(out, "ADEQUATE") {
		t.Errorf("K4 f=1: %q (exit %d)", out, code)
	}
}

func TestRunExperiment(t *testing.T) {
	out, code := capture(t, "run", "e5") // lower case must work
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "E5") || !strings.Contains(out, "Theorem 5") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestProveDefeatsDevice(t *testing.T) {
	for _, dev := range []string{"majority", "eig", "phase-king"} {
		out, code := capture(t, "prove", dev)
		if code != 0 {
			t.Fatalf("%s: exit %d:\n%s", dev, code, out)
		}
		if !strings.Contains(out, "**") {
			t.Errorf("%s: no violation reported:\n%s", dev, out)
		}
	}
}

func TestDotCommand(t *testing.T) {
	tests := []struct {
		args     []string
		wantCode int
		want     string
	}{
		{[]string{"dot"}, 2, "usage"},
		{[]string{"dot", "nope"}, 2, "unknown cover"},
		{[]string{"dot", "hex"}, 0, `"r0" -- "r1"`},
		{[]string{"dot", "diamond"}, 0, "a.0"},
		{[]string{"dot", "ring", "24"}, 0, "r23"},
		{[]string{"dot", "ring", "7"}, 2, "multiple of 3"},
	}
	for _, tt := range tests {
		out, code := capture(t, tt.args...)
		if code != tt.wantCode || !strings.Contains(out, tt.want) {
			t.Errorf("%v: exit %d, output %q (want exit %d containing %q)",
				tt.args, code, out[:min(len(out), 200)], tt.wantCode, tt.want)
		}
	}
}

func TestTraceCommand(t *testing.T) {
	out, code := capture(t, "trace", "majority")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"round 0:", "decisions:", "messages="} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q", want)
		}
	}
	if _, code := capture(t, "trace"); code != 2 {
		t.Error("missing device accepted")
	}
	if _, code := capture(t, "trace", "nope"); code != 2 {
		t.Error("unknown device accepted")
	}
}

// TestAllWithOutputFile is the report gate: `flm all -o` must write the
// committed report.txt byte for byte, with the run cache on and again
// with it off, so no cache can change a result.
func TestAllWithOutputFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	all := func(cacheOn bool) {
		t.Helper()
		defer flm.SetRunCacheEnabled(cacheOn)()
		path := filepath.Join(t.TempDir(), "report.txt")
		out, code := capture(t, "all", "-o", path)
		if code != 0 {
			t.Fatalf("run cache on=%v: exit %d:\n%s", cacheOn, code, out[:min(len(out), 2000)])
		}
		for _, id := range []string{"E1", "E8", "E14"} {
			if !strings.Contains(out, "== "+id+":") {
				t.Errorf("run cache on=%v: report missing %s", cacheOn, id)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("run cache on=%v: the report differs from the committed report.txt (%d vs %d bytes)", cacheOn, len(got), len(want))
		}
	}
	all(true)
	all(false)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
