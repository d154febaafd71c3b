package weak

import (
	"testing"

	"flm/internal/adversary"
	"flm/internal/byzantine"
	"flm/internal/graph"
	"flm/internal/sim"
)

func runWeak(t *testing.T, g *graph.Graph, honest sim.Builder, inputs map[string]sim.Input,
	faulty map[string]sim.Builder, rounds int) (*sim.Run, []string) {
	t.Helper()
	trial := sim.Trial{G: g, Inputs: inputs, Honest: honest, Faulty: faulty, Rounds: rounds}
	run, correct, err := trial.Run(sim.FullRecording)
	if err != nil {
		t.Fatal(err)
	}
	return run, correct
}

func inputsBits(g *graph.Graph, bits int) map[string]sim.Input {
	m := make(map[string]sim.Input, g.N())
	for i, name := range g.Names() {
		m[name] = sim.BoolInput(bits&(1<<uint(i)) != 0)
	}
	return m
}

func TestViaBASolvesWeakOnAdequateGraph(t *testing.T) {
	g := graph.Complete(4)
	honest := NewViaBA(1, g.Names())
	for bits := 0; bits < 16; bits++ {
		for _, strat := range adversary.Panel(5) {
			run, correct := runWeak(t, g, honest, inputsBits(g, bits),
				map[string]sim.Builder{"p3": strat.Corrupt(honest)}, byzantine.EIGRounds(1))
			rep := Check(run, correct, false)
			if !rep.OK() {
				t.Errorf("bits=%b strat=%s: %v", bits, strat.Name, rep.Err())
			}
		}
	}
}

func TestViaBAValidityAllCorrect(t *testing.T) {
	g := graph.Complete(4)
	honest := NewViaBA(1, g.Names())
	for _, bits := range []int{0, 0xF} {
		run, correct := runWeak(t, g, honest, inputsBits(g, bits), nil, byzantine.EIGRounds(1))
		rep := Check(run, correct, true)
		if !rep.OK() {
			t.Errorf("bits=%b: %v", bits, rep.Err())
		}
	}
}

func TestDetectDefaultFaultFreeUnanimous(t *testing.T) {
	g := graph.Triangle()
	for _, bit := range []int{0, 7} {
		run, correct := runWeak(t, g, NewDetectDefault(3), inputsBits(g, bit), nil, 6)
		rep := Check(run, correct, true)
		if !rep.OK() {
			t.Errorf("bit=%d: %v", bit, rep.Err())
		}
	}
}

func TestDetectDefaultFaultFreeMixedFallsToDefault(t *testing.T) {
	g := graph.Triangle()
	run, correct := runWeak(t, g, NewDetectDefault(3), inputsBits(g, 0x3), nil, 6)
	rep := Check(run, correct, true)
	// Mixed inputs: weak validity does not bind; everyone detects
	// disagreement and defaults, so agreement holds.
	if rep.Agreement != nil || rep.Termination != nil {
		t.Errorf("mixed inputs: %v", rep.Err())
	}
	for _, name := range correct {
		d, _ := run.DecisionOf(name)
		if d.Value != byzantine.DefaultValue {
			t.Errorf("%s chose %s, want default", name, d.Value)
		}
	}
}

func TestDetectDefaultSilentFaultTriggersDefault(t *testing.T) {
	g := graph.Triangle()
	run, correct := runWeak(t, g, NewDetectDefault(3), inputsBits(g, 0x7),
		map[string]sim.Builder{"c": adversary.Silent()}, 6)
	rep := Check(run, correct, false)
	if rep.Agreement != nil || rep.Termination != nil {
		t.Errorf("silent fault: %v", rep.Err())
	}
}

func TestCheckChoiceViolation(t *testing.T) {
	g := graph.Triangle()
	run, correct := runWeak(t, g, NewDetectDefault(100), inputsBits(g, 0), nil, 4)
	rep := Check(run, correct, true)
	if rep.Termination == nil {
		t.Error("undecided run passed the choice condition")
	}
}

func TestCheckValidityViolation(t *testing.T) {
	g := graph.Triangle()
	// A constant-0 device on unanimous-1 all-correct inputs.
	run, correct := runWeak(t, g, byzantine.NewConstant("0", 2), inputsBits(g, 7), nil, 4)
	rep := Check(run, correct, true)
	if rep.Validity == nil {
		t.Error("constant device passed weak validity on unanimous all-correct run")
	}
	// The same run with allCorrect=false: validity must not bind.
	rep = Check(run, correct, false)
	if rep.Validity != nil {
		t.Error("validity bound a run with faults")
	}
}

func TestCheckAgreementViolation(t *testing.T) {
	g := graph.Triangle()
	run, correct := runWeak(t, g, byzantine.NewOwnInput(2), inputsBits(g, 0x1), nil, 4)
	rep := Check(run, correct, true)
	if rep.Agreement == nil {
		t.Error("own-input decisions passed agreement")
	}
}
