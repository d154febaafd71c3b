package initdead

import (
	"fmt"
	"testing"

	"flm/internal/adversary"
	"flm/internal/graph"
	"flm/internal/sim"
)

// runTrial executes the protocol on K_n with the given dead set, inputs
// (in sorted-name order), and delay schedule, and returns the run plus
// the live-node list.
func runTrial(t *testing.T, n, tFaults int, dead map[string]bool, inputs []string, delays *sim.DelaySchedule, rounds int) (*sim.Run, []string) {
	t.Helper()
	g := graph.Complete(n)
	names := g.Names()
	for d := range dead {
		if _, ok := g.Index(d); !ok {
			t.Fatalf("dead set names unknown node %q", d)
		}
	}
	honest := New(tFaults)
	p := sim.Protocol{
		Builders: make(map[string]sim.Builder, n),
		Inputs:   make(map[string]sim.Input, n),
	}
	var live []string
	for i, name := range names {
		p.Inputs[name] = sim.Input(inputs[i])
		if dead[name] {
			p.Builders[name] = adversary.InitiallyDead()
		} else {
			p.Builders[name] = honest
			live = append(live, name)
		}
	}
	sys, err := sim.NewSystem(g, p)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sim.ExecuteWith(sys, rounds, sim.ExecuteOpts{Delays: delays})
	if err != nil {
		t.Fatal(err)
	}
	return run, live
}

// subsetsUpTo enumerates every subset of names with size <= k.
func subsetsUpTo(names []string, k int) []map[string]bool {
	var out []map[string]bool
	n := len(names)
	for mask := 0; mask < 1<<n; mask++ {
		sub := map[string]bool{}
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sub[names[i]] = true
			}
		}
		if len(sub) <= k {
			out = append(out, sub)
		}
	}
	return out
}

func alternatingInputs(n int) []string {
	in := make([]string, n)
	for i := range in {
		in[i] = fmt.Sprint(i % 2)
	}
	return in
}

func TestSynchronousNoFailures(t *testing.T) {
	for _, size := range []struct{ n, t int }{{3, 1}, {5, 2}, {7, 3}} {
		run, live := runTrial(t, size.n, size.t, nil, alternatingInputs(size.n), nil, Rounds(0))
		if rep := Check(run, live); !rep.OK() {
			t.Errorf("n=%d t=%d: %v", size.n, size.t, rep.Err())
		}
	}
}

func TestEveryDeadSubsetSynchronous(t *testing.T) {
	// n > 2t: every initially-dead subset of size <= t must leave a
	// correct execution. Exhaustive over subsets.
	for _, size := range []struct{ n, t int }{{3, 1}, {5, 2}, {7, 3}} {
		names := graph.Complete(size.n).Names()
		for _, dead := range subsetsUpTo(names, size.t) {
			run, live := runTrial(t, size.n, size.t, dead, alternatingInputs(size.n), nil, Rounds(0))
			if rep := Check(run, live); !rep.OK() {
				t.Errorf("n=%d t=%d dead=%v: %v", size.n, size.t, dead, rep.Err())
			}
		}
	}
}

func TestEveryDeadSubsetUnderSeededDelays(t *testing.T) {
	// The same exhaustive sweep under adversarial asynchrony: delays
	// bounded by D, round budget Rounds(D).
	const maxDelay = 2
	for _, size := range []struct{ n, t int }{{3, 1}, {5, 2}} {
		g := graph.Complete(size.n)
		names := g.Names()
		rounds := Rounds(maxDelay)
		for seed := int64(1); seed <= 3; seed++ {
			delays := sim.SeededDelays(seed, names, rounds, maxDelay)
			for _, dead := range subsetsUpTo(names, size.t) {
				run, live := runTrial(t, size.n, size.t, dead, alternatingInputs(size.n), delays, rounds)
				if rep := Check(run, live); !rep.OK() {
					t.Errorf("n=%d t=%d seed=%d dead=%v: %v", size.n, size.t, seed, dead, rep.Err())
				}
			}
		}
	}
}

func TestUnanimityDecidesThatValue(t *testing.T) {
	in := []string{"1", "1", "1", "1", "1"}
	run, live := runTrial(t, 5, 2, map[string]bool{"p0": true, "p3": true}, in, nil, Rounds(0))
	for _, name := range live {
		d, err := run.DecisionOf(name)
		if err != nil {
			t.Fatal(err)
		}
		if d.Value != "1" {
			t.Errorf("%s decided %q, want unanimous 1", name, d.Value)
		}
	}
}

func TestPartitionDisagreementAtNEquals2T(t *testing.T) {
	// n = 2t is beyond the protocol's resilience: the partition delay
	// schedule splits the nodes into two groups with different inputs
	// and produces disagreement — the machine-checked face of the
	// n > 2t requirement.
	for _, size := range []struct{ n, t int }{{2, 1}, {4, 2}, {6, 3}} {
		g := graph.Complete(size.n)
		names := g.Names()
		rounds := Rounds(0) + size.n // slack: groups decide at their own pace
		delays := PartitionDelays(names, size.t, rounds)
		// Group A (first n-t sorted names) inputs 0, group B inputs 1.
		inputs := make([]string, size.n)
		for i := range inputs {
			if i < size.n-size.t {
				inputs[i] = "0"
			} else {
				inputs[i] = "1"
			}
		}
		run, live := runTrial(t, size.n, size.t, nil, inputs, delays, rounds)
		rep := Check(run, live)
		if rep.Agreement == nil {
			t.Errorf("n=%d t=%d: expected disagreement under partition delays, got %+v", size.n, size.t, rep)
		}
	}
}

func TestPartitionHarmlessAboveThreshold(t *testing.T) {
	// For n > 2t the same partition schedule cannot break the protocol:
	// the minority group alone lacks the n-t-1 foreign records it
	// needs, so it keeps waiting for the (delayed-to-horizon) majority
	// traffic... which means termination fails but never agreement.
	// With the cross traffic delayed only *finitely* (within budget),
	// everything still decides and agrees.
	for _, size := range []struct{ n, t int }{{3, 1}, {5, 2}} {
		g := graph.Complete(size.n)
		names := g.Names()
		const maxDelay = 3
		rounds := Rounds(maxDelay)
		bounded := PartitionDelays(names, size.t, rounds)
		for i := range bounded.Rules {
			bounded.Rules[i].Extra = maxDelay
		}
		run, live := runTrial(t, size.n, size.t, nil, alternatingInputs(size.n), bounded, rounds)
		if rep := Check(run, live); !rep.OK() {
			t.Errorf("n=%d t=%d: bounded partition broke the protocol: %v", size.n, size.t, rep.Err())
		}
	}
}

func TestDeterministicAcrossExecutions(t *testing.T) {
	decisionsOf := func() []string {
		sim.ResetRunCache()
		delays := sim.SeededDelays(9, graph.Complete(5).Names(), Rounds(2), 2)
		run, live := runTrial(t, 5, 2, map[string]bool{"p1": true}, alternatingInputs(5), delays, Rounds(2))
		out := make([]string, len(live))
		for i, name := range live {
			d, err := run.DecisionOf(name)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = d.Value
		}
		return out
	}
	a, b := decisionsOf(), decisionsOf()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decisions diverged across executions: %v vs %v", a, b)
		}
	}
}

func TestFingerprintJoinsRunCache(t *testing.T) {
	d := New(2)("k0", []string{"k1", "k2", "k3", "k4"}, "1")
	fp := sim.FingerprintOf(d)
	if fp != "initdead/v1:t=2" {
		t.Errorf("fingerprint = %q", fp)
	}
	if fp2 := sim.FingerprintOf(New(1)("k0", []string{"k1", "k2"}, "1")); fp2 == fp {
		t.Error("different t must fingerprint differently")
	}
	// End to end: two identical systems hit the cache (same Run pointer).
	mk := func() *sim.Run {
		run, _ := runTrial(t, 5, 2, nil, alternatingInputs(5), nil, Rounds(0))
		return run
	}
	sim.ResetRunCache()
	if a, b := mk(), mk(); a != b {
		t.Error("identical initdead systems should share the cached run")
	}
}

func TestRoundsBound(t *testing.T) {
	if got := Rounds(0); got != 4 {
		t.Errorf("Rounds(0) = %d, want 4", got)
	}
	if got := Rounds(3); got != 10 {
		t.Errorf("Rounds(3) = %d, want 10", got)
	}
	if got := Rounds(-1); got != 4 {
		t.Errorf("Rounds(-1) = %d, want clamp to 4", got)
	}
}

func TestCheckFlagsUndecided(t *testing.T) {
	// Too few rounds for anyone to decide: Termination must trip.
	run, live := runTrial(t, 5, 2, nil, alternatingInputs(5), nil, 1)
	rep := Check(run, live)
	if rep.Termination == nil {
		t.Error("expected a termination violation at 1 round")
	}
}
