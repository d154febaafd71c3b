package timedsim

import (
	"math/big"
	"testing"

	"flm/internal/clockfn"
	"flm/internal/graph"
)

// recordedValues renders every rational recorded in a Run.
func recordedValues(run *Run) []string {
	vals := []string{run.Until.String()}
	for u := range run.Ticks {
		for _, tk := range run.Ticks[u] {
			vals = append(vals, tk.Time.String(), tk.HW.String())
		}
	}
	g := run.G
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			for _, rec := range run.Sends[graph.Edge{From: g.Name(u), To: g.Name(v)}] {
				vals = append(vals, rec.At.String())
			}
		}
	}
	for _, hw := range run.FinalHW {
		vals = append(vals, hw.String())
	}
	return vals
}

// TestRunDoesNotAliasCallerRationals: Execute only reads the System's
// *big.Rat parameters. A run whose tick spacing 1 + 2⁻⁷⁰ is too large for
// int64 parts, so that its times and readings are held by math/big,
// keeps every recorded value after the caller mutates that spacing and
// re-executes the system.
func TestRunDoesNotAliasCallerRationals(t *testing.T) {
	sys := lineSystem(clockfn.NewRatLinear(3, 2, 1, 2), clockfn.NewRatLinear(5, 3, -1, 3))
	sys.Delta = new(big.Rat).SetFrac(
		new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(1), 70))
	runA, err := Execute(sys, rat(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	vals := recordedValues(runA)
	if len(runA.Ticks[0]) < 2 || runA.Ticks[0][1].HW.String() != sys.Delta.RatString() {
		t.Fatalf("tick 1 of l0 reads %v, want the spacing %s", runA.Ticks[0], sys.Delta.RatString())
	}
	sys.Delta.SetFrac64(7, 3)
	if _, err := Execute(sys, rat(6, 1)); err != nil {
		t.Fatal(err)
	}
	for i, v := range recordedValues(runA) {
		if v != vals[i] {
			t.Fatalf("recorded value %d changed after the caller's spacing did: %s -> %s", i, vals[i], v)
		}
	}
}

// TestScriptSendTimesCopied: a run records its scripted send times by
// value, so overwriting the script afterwards (scripts are routinely
// built from another run's records and rescaled by callers) cannot
// change the recorded behavior.
func TestScriptSendTimesCopied(t *testing.T) {
	script := []ScriptedSend{{At: rat(1, 2), To: "l1", Payload: "x"}}
	sys := &System{
		G: graph.Line(2),
		Nodes: []Node{
			{Script: script, Clock: clockfn.RatIdentity()},
			{Device: &beacon{}, Clock: clockfn.RatIdentity()},
		},
		Delta: big.NewRat(1, 1),
	}
	run, err := Execute(sys, rat(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	recs := run.Sends[graph.Edge{From: "l0", To: "l1"}]
	if len(recs) != 1 {
		t.Fatalf("recorded %d sends, want 1", len(recs))
	}
	script[0].At = rat(9, 1)
	if got := recs[0].At.String(); got != "1/2" {
		t.Fatalf("recorded send time followed the script: %s", got)
	}
}
