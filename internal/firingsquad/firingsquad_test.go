package firingsquad

import (
	"testing"

	"flm/internal/adversary"
	"flm/internal/graph"
	"flm/internal/sim"
)

func runFS(t *testing.T, g *graph.Graph, honest sim.Builder, stimulated map[string]bool,
	faulty map[string]sim.Builder, rounds int) (*sim.Run, []string) {
	t.Helper()
	inputs := make(map[string]sim.Input, g.N())
	for _, name := range g.Names() {
		inputs[name] = sim.BoolInput(stimulated[name])
	}
	trial := sim.Trial{G: g, Inputs: inputs, Honest: honest, Faulty: faulty, Rounds: rounds}
	run, correct, err := trial.Run(sim.FullRecording)
	if err != nil {
		t.Fatal(err)
	}
	return run, correct
}

func TestViaBAFiresOnStimulus(t *testing.T) {
	g := graph.Complete(4)
	honest := NewViaBA(1, g.Names())
	for _, stimSet := range []map[string]bool{
		{"p0": true},
		{"p2": true},
		{"p0": true, "p1": true, "p2": true, "p3": true},
	} {
		run, correct := runFS(t, g, honest, stimSet, nil, Rounds(1))
		rep := Check(run, correct, true, true)
		if !rep.OK() {
			t.Errorf("stim=%v: %v", stimSet, rep.Err())
		}
		for _, name := range correct {
			d, _ := run.DecisionOf(name)
			if d.Value != Fired || d.Round != FireTime(1) {
				t.Errorf("stim=%v: %s fired %q at %d, want FIRE at %d", stimSet, name, d.Value, d.Round, FireTime(1))
			}
		}
	}
}

func TestViaBASilentWithoutStimulus(t *testing.T) {
	g := graph.Complete(4)
	run, correct := runFS(t, g, NewViaBA(1, g.Names()), nil, nil, Rounds(1)+3)
	rep := Check(run, correct, true, false)
	if !rep.OK() {
		t.Errorf("no stimulus: %v", rep.Err())
	}
}

func TestViaBASimultaneousUnderFaults(t *testing.T) {
	g := graph.Complete(4)
	honest := NewViaBA(1, g.Names())
	for _, strat := range adversary.Panel(31) {
		for _, stim := range []map[string]bool{nil, {"p1": true}} {
			run, correct := runFS(t, g, honest, stim,
				map[string]sim.Builder{"p0": strat.Corrupt(honest)}, Rounds(1)+2)
			// With a fault only simultaneity binds (a faulty node can
			// fake or suppress its own stimulus report).
			rep := Check(run, correct, false, len(stim) > 0)
			if rep.Agreement != nil {
				t.Errorf("strat=%s stim=%v: %v", strat.Name, stim, rep.Agreement)
			}
		}
	}
}

func TestViaBAStimulusAtCorrectNodeAlwaysFires(t *testing.T) {
	// If a *correct* node holds the stimulus, its round-0 broadcast
	// reaches every correct node, making the BA input unanimous... only
	// when all are correct. With a fault, firing is permitted but not
	// forced; verify the all-correct case plus simultaneity above.
	g := graph.Complete(7)
	honest := NewViaBA(2, g.Names())
	run, correct := runFS(t, g, honest, map[string]bool{"p6": true}, nil, Rounds(2))
	rep := Check(run, correct, true, true)
	if !rep.OK() {
		t.Errorf("f=2 stimulus: %v", rep.Err())
	}
}

func TestCountdownAllCorrect(t *testing.T) {
	g := graph.Complete(4)
	run, correct := runFS(t, g, NewCountdown(3), map[string]bool{"p1": true}, nil, 8)
	rep := Check(run, correct, true, true)
	if !rep.OK() {
		t.Errorf("countdown all-correct: %v", rep.Err())
	}
	run, correct = runFS(t, g, NewCountdown(3), nil, nil, 8)
	rep = Check(run, correct, true, false)
	if !rep.OK() {
		t.Errorf("countdown no-stimulus: %v", rep.Err())
	}
}

func TestCountdownForgeableOrigins(t *testing.T) {
	// A faulty node claiming a stale origin late staggers fire times.
	g := graph.Complete(4)
	honest := NewCountdown(3)
	liar := sim.ReplayBuilder(map[string][]sim.Payload{
		"p1": {"", "", "", "", "", "S0"}, // tells p1 about a round-0 stimulus at round 5
	})
	run, correct := runFS(t, g, honest, nil, map[string]sim.Builder{"p0": liar}, 10)
	rep := Check(run, correct, false, false)
	if rep.Agreement == nil {
		t.Error("forged origin did not break simultaneity")
	}
}

func TestCheckReportsNonSimultaneousFiring(t *testing.T) {
	g := graph.Complete(3)
	// Devices with different fuses fire at different rounds.
	p := sim.Protocol{
		Builders: map[string]sim.Builder{
			"p0": NewCountdown(2),
			"p1": NewCountdown(3),
			"p2": NewCountdown(2),
		},
		Inputs: map[string]sim.Input{"p0": "1", "p1": "0", "p2": "0"},
	}
	sys, err := sim.NewSystem(g, p)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sim.Execute(sys, 8)
	if err != nil {
		t.Fatal(err)
	}
	rep := Check(run, g.Names(), true, true)
	if rep.Agreement == nil {
		t.Error("staggered firing passed the agreement condition")
	}
}

func TestCheckValidityBranches(t *testing.T) {
	g := graph.Complete(3)
	// Nobody fires despite stimulus: validity violation.
	run, correct := runFS(t, g, NewCountdown(100), map[string]bool{"p0": true}, nil, 5)
	rep := Check(run, correct, true, true)
	if rep.Validity == nil {
		t.Error("non-firing stimulated run passed validity")
	}
	// Firing without stimulus: validity violation. Simulate via a fuse-0
	// device that thinks it was stimulated.
	run, correct = runFS(t, g, NewCountdown(2), map[string]bool{"p0": true}, nil, 6)
	rep = Check(run, correct, true, false) // claim: no stimulus occurred
	if rep.Validity == nil {
		t.Error("firing run passed validity with stimulated=false")
	}
}
