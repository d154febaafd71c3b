package chaos

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"flm/internal/adversary"
	"flm/internal/approx"
	"flm/internal/byzantine"
	"flm/internal/firingsquad"
	"flm/internal/graph"
	"flm/internal/initdead"
	"flm/internal/sim"
	"flm/internal/weak"
)

var updateTrials = flag.Bool("update", false, "rewrite testdata/trials.golden")

const trialsGolden = "testdata/trials.golden"

// goldenChaosTrials is the number of schedules pinned per generator.
const goldenChaosTrials = 1024

// trialCase is one protocol on one graph, judged by one problem's
// checker: every input pattern is run against every faulty set, and
// each faulty set against every strategy of strats (an empty set runs
// once, all correct).
type trialCase struct {
	name   string
	g      *graph.Graph
	honest sim.Builder
	rounds int
	opts   sim.ExecuteOpts
	inputs []map[string]sim.Input
	tags   []string // one label per input pattern
	faulty [][]string
	strats []adversary.Strategy
	check  func(run *sim.Run, correct []string, allCorrect bool) error
}

// bitInputs turns bit patterns into boolean input maps over g.
func bitInputs(g *graph.Graph, bits ...int) ([]map[string]sim.Input, []string) {
	var ins []map[string]sim.Input
	var tags []string
	for _, b := range bits {
		in := make(map[string]sim.Input, g.N())
		for i, name := range g.Names() {
			in[name] = sim.BoolInput(b&(1<<uint(i)) != 0)
		}
		ins = append(ins, in)
		tags = append(tags, fmt.Sprintf("bits=%#x", b))
	}
	return ins, tags
}

// realInputs assigns g's nodes the given reals in name order.
func realInputs(g *graph.Graph, vals ...float64) map[string]sim.Input {
	in := make(map[string]sim.Input, g.N())
	for i, name := range g.Names() {
		in[name] = sim.RealInput(vals[i])
	}
	return in
}

// goldenTrialCases lists, per problem checker, a panel of trials on
// both sides of the protocols' bounds, so the golden holds violations of
// every condition as well as passes.
func goldenTrialCases() []trialCase {
	panel := adversary.Panel(7)
	dead := []adversary.Strategy{{Name: "dead", Corrupt: func(sim.Builder) sim.Builder { return adversary.InitiallyDead() }}}
	ba := func(run *sim.Run, correct []string, _ bool) error { return byzantine.CheckBA(run, correct).Err() }
	k3, k4, k5 := graph.Complete(3), graph.Complete(4), graph.Complete(5)
	var cs []trialCase

	ins, tags := bitInputs(k4, 0, 0xf, 0x5)
	cs = append(cs, trialCase{name: "ba/eig/K4", g: k4, honest: byzantine.NewEIG(1, k4.Names()),
		rounds: byzantine.EIGRounds(1), inputs: ins, tags: tags,
		faulty: [][]string{{"p0"}, {"p3"}}, strats: panel, check: ba})
	ins, tags = bitInputs(k3, 0x3, 0x5)
	cs = append(cs, trialCase{name: "ba/eig/K3", g: k3, honest: byzantine.NewEIG(1, k3.Names()),
		rounds: byzantine.EIGRounds(1), inputs: ins, tags: tags,
		faulty: [][]string{{"p0"}, {"p2"}}, strats: panel, check: ba})
	ins, tags = bitInputs(k5, 0x1f, 0x0a)
	cs = append(cs, trialCase{name: "ba/phase-king/K5", g: k5, honest: byzantine.NewPhaseKing(1, k5.Names()),
		rounds: byzantine.PhaseKingRounds(1), inputs: ins, tags: tags,
		faulty: [][]string{{"p1"}, {"p4"}}, strats: panel, check: ba})
	ins, tags = bitInputs(k4, 0x6)
	cs = append(cs, trialCase{name: "ba/phase-king/K4", g: k4, honest: byzantine.NewPhaseKing(1, k4.Names()),
		rounds: byzantine.PhaseKingRounds(1), inputs: ins, tags: tags,
		faulty: [][]string{{"p0"}, {"p2"}}, strats: panel, check: ba})
	cs = append(cs, trialCase{name: "ba/eig/K4/short", g: k4, honest: byzantine.NewEIG(1, k4.Names()),
		rounds: 1, inputs: ins[:1], tags: tags[:1], faulty: [][]string{{}}, check: ba})
	colors := make(map[string]sim.Input, k4.N())
	for i, name := range k4.Names() {
		colors[name] = sim.Input([]string{"red", "green", "blue", "red"}[i])
	}
	cs = append(cs, trialCase{name: "ba/turpin-coan/K4", g: k4, honest: byzantine.NewTurpinCoan(1, k4.Names()),
		rounds: byzantine.TurpinCoanRounds(1), inputs: []map[string]sim.Input{colors}, tags: []string{"colors"},
		faulty: [][]string{{"p1"}, {"p3"}}, strats: panel, check: ba})

	simple := func(run *sim.Run, correct []string, _ bool) error { return approx.CheckSimple(run, correct).Err() }
	cs = append(cs, trialCase{name: "simple/dlpsw/K4", g: k4, honest: approx.NewDLPSW(1, k4.Names(), 3),
		rounds: approx.DLPSWRounds(3), inputs: []map[string]sim.Input{realInputs(k4, 0, 1, 0.3, 0.8), realInputs(k4, 2, 2, 2, 2)},
		tags: []string{"spread", "equal"}, faulty: [][]string{{"p0"}, {"p3"}}, strats: panel, check: simple})
	cs = append(cs, trialCase{name: "simple/dlpsw/K3", g: k3, honest: approx.NewDLPSW(1, k3.Names(), 3),
		rounds: approx.DLPSWRounds(3), inputs: []map[string]sim.Input{realInputs(k3, 0, 1, 0.5)},
		tags: []string{"spread"}, faulty: [][]string{{"p1"}}, strats: panel, check: simple})
	cs = append(cs, trialCase{name: "simple/median/K4", g: k4, honest: approx.NewMedian(2),
		rounds: 3, inputs: []map[string]sim.Input{realInputs(k4, 0, 1, 0.3, 0.8)},
		tags: []string{"spread"}, faulty: [][]string{{"p2"}}, strats: panel, check: simple})
	cs = append(cs, trialCase{name: "simple/constant/K4", g: k4, honest: byzantine.NewConstant(sim.EncodeReal(5), 1),
		rounds: 2, inputs: []map[string]sim.Input{realInputs(k4, 2, 2, 2, 2), realInputs(k4, 0, 9, 1, 2)},
		tags: []string{"equal", "spread"}, faulty: [][]string{{}}, check: simple})
	malformed := realInputs(k4, 0, 1, 0.3, 0.8)
	malformed["p2"] = "zz"
	cs = append(cs, trialCase{name: "simple/own-input/K4", g: k4, honest: byzantine.NewOwnInput(1),
		rounds: 2, inputs: []map[string]sim.Input{realInputs(k4, 0, 1, 0.3, 0.8), realInputs(k4, 1, 1, 1, 1), malformed},
		tags: []string{"spread", "equal", "malformed"}, faulty: [][]string{{}}, check: simple})

	for _, eps := range []float64{0.5, 0.01} {
		eps := eps
		cs = append(cs, trialCase{name: fmt.Sprintf("edg/dlpsw/K4/eps=%v", eps), g: k4, honest: approx.NewDLPSW(1, k4.Names(), 2),
			rounds: approx.DLPSWRounds(2), inputs: []map[string]sim.Input{realInputs(k4, 0, 1, 0.3, 0.8)},
			tags: []string{"spread"}, faulty: [][]string{{"p1"}}, strats: panel,
			check: func(run *sim.Run, correct []string, _ bool) error {
				return approx.CheckEDG(run, correct, eps, 0).Err()
			}})
	}

	wk := func(run *sim.Run, correct []string, allCorrect bool) error {
		return weak.Check(run, correct, allCorrect).Err()
	}
	ins, tags = bitInputs(k4, 0, 0xf, 0x9)
	cs = append(cs, trialCase{name: "weak/via-ba/K4", g: k4, honest: weak.NewViaBA(1, k4.Names()),
		rounds: byzantine.EIGRounds(1), inputs: ins, tags: tags,
		faulty: [][]string{{}, {"p2"}}, strats: panel, check: wk})
	ins, tags = bitInputs(k3, 0, 0x7, 0x3)
	cs = append(cs, trialCase{name: "weak/detect-default/K3", g: k3, honest: weak.NewDetectDefault(3),
		rounds: 4, inputs: ins, tags: tags,
		faulty: [][]string{{}, {"p0"}}, strats: panel, check: wk})
	ins, tags = bitInputs(k3, 0x3)
	cs = append(cs, trialCase{name: "weak/via-ba/K3", g: k3, honest: weak.NewViaBA(1, k3.Names()),
		rounds: byzantine.EIGRounds(1), inputs: ins, tags: tags,
		faulty: [][]string{{"p2"}}, strats: panel, check: wk})
	ins, tags = bitInputs(k3, 0x7, 0x5)
	cs = append(cs, trialCase{name: "weak/constant/K3", g: k3, honest: byzantine.NewConstant("0", 1),
		rounds: 2, inputs: ins, tags: tags, faulty: [][]string{{}, {"p1"}}, strats: panel[:1], check: wk})
	cs = append(cs, trialCase{name: "weak/own-input/K3", g: k3, honest: byzantine.NewOwnInput(1),
		rounds: 2, inputs: ins, tags: tags, faulty: [][]string{{}}, check: wk})
	ins, tags = bitInputs(k3, 0)
	cs = append(cs, trialCase{name: "weak/detect-default/K3/short", g: k3, honest: weak.NewDetectDefault(3),
		rounds: 2, inputs: ins, tags: tags, faulty: [][]string{{}}, check: wk})

	for _, c := range []struct {
		name   string
		g      *graph.Graph
		honest sim.Builder
		rounds int
	}{
		{"fs/via-ba/K4", k4, firingsquad.NewViaBA(1, k4.Names()), firingsquad.Rounds(1) + 2},
		{"fs/via-ba/K4/short", k4, firingsquad.NewViaBA(1, k4.Names()), 2},
		{"fs/via-ba/K3", k3, firingsquad.NewViaBA(1, k3.Names()), firingsquad.Rounds(1) + 2},
		{"fs/countdown/K4", k4, firingsquad.NewCountdown(2), 4},
		{"fs/constant/K4", k4, byzantine.NewConstant(firingsquad.Fired, 1), 3},
	} {
		ins, tags := bitInputs(c.g, 0, 0x1, 0x3)
		cs = append(cs, trialCase{name: c.name, g: c.g, honest: c.honest, rounds: c.rounds,
			inputs: ins, tags: tags, faulty: [][]string{{}, {"p0"}, {"p2"}}, strats: panel,
			check: func(run *sim.Run, correct []string, allCorrect bool) error {
				stimulated := false
				for _, in := range run.Inputs {
					stimulated = stimulated || in == sim.BoolInput(true)
				}
				return firingsquad.Check(run, correct, allCorrect, stimulated).Err()
			}})
	}

	live := func(run *sim.Run, correct []string, _ bool) error { return initdead.Check(run, correct).Err() }
	ins, tags = bitInputs(k5, 0x0a, 0x1f)
	cs = append(cs, trialCase{name: "initdead/K5", g: k5, honest: initdead.New(2), rounds: initdead.Rounds(0),
		inputs: ins, tags: tags, faulty: [][]string{{}, {"p0"}, {"p1", "p3"}}, strats: dead, check: live})
	k4rounds := initdead.Rounds(0) + 4
	ins, tags = bitInputs(k4, 0xc)
	cs = append(cs, trialCase{name: "initdead/K4/partition", g: k4, honest: initdead.New(2), rounds: k4rounds,
		opts:   sim.ExecuteOpts{Delays: initdead.PartitionDelays(k4.Names(), 2, k4rounds)},
		inputs: ins, tags: tags, faulty: [][]string{{}, {"p1"}}, strats: dead, check: live})
	cs = append(cs, trialCase{name: "initdead/constant/K4", g: k4, honest: byzantine.NewConstant("7", 1), rounds: 2,
		inputs: ins, tags: tags, faulty: [][]string{{}, {"p3"}}, strats: dead, check: live})
	cs = append(cs, trialCase{name: "initdead/K4/short", g: k4, honest: initdead.New(1), rounds: 1,
		inputs: ins, tags: tags, faulty: [][]string{{}}, check: live})
	return cs
}

// renderTrial writes one trial's correct set, every node's decision
// with its round, and the checker's first violated condition.
func renderTrial(b *strings.Builder, c trialCase, tag string, bad []string, strat string, faulty map[string]sim.Builder, inputs map[string]sim.Input) error {
	trial := byzantine.Trial{G: c.g, Inputs: inputs, Honest: c.honest, Faulty: faulty, Rounds: c.rounds}
	run, correct, _, err := trial.RunWith(c.opts)
	if err != nil {
		return fmt.Errorf("%s %s bad=%v %s: %w", c.name, tag, bad, strat, err)
	}
	verdict := "ok"
	if err := c.check(run, correct, len(faulty) == 0); err != nil {
		verdict = err.Error()
	}
	fmt.Fprintf(b, "== %s %s bad=%s %s: %s\ncorrect=%s\n", c.name, tag, strings.Join(bad, ","), strat, verdict, strings.Join(correct, ","))
	for u, name := range c.g.Names() {
		d := run.Decisions[u]
		fmt.Fprintf(b, " %s=%q@%d", name, d.Value, d.Round)
	}
	b.WriteString("\n")
	return nil
}

// renderTrialCase runs every trial of c.
func renderTrialCase(b *strings.Builder, c trialCase) error {
	for i, inputs := range c.inputs {
		for _, bad := range c.faulty {
			if len(bad) == 0 {
				if err := renderTrial(b, c, c.tags[i], bad, "-", nil, inputs); err != nil {
					return err
				}
				continue
			}
			for _, strat := range c.strats {
				faulty := make(map[string]sim.Builder, len(bad))
				for _, name := range bad {
					faulty[name] = strat.Corrupt(c.honest)
				}
				if err := renderTrial(b, c, c.tags[i], bad, strat.Name, faulty, inputs); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// renderChaosOutcomes writes every RunSchedule outcome of the first
// goldenChaosTrials schedules of one generator.
func renderChaosOutcomes(b *strings.Builder, label string, seed int64, o GenOpts) {
	for i := 0; i < goldenChaosTrials; i++ {
		s := NewScheduleWith(seed, i, o)
		out := RunSchedule(s)
		verdict := "green"
		switch {
		case out.EngineErr != nil:
			verdict = "engine: " + out.EngineErr.Error()
		case out.Violation != nil:
			verdict = "violation: " + out.Violation.Error()
		}
		fmt.Fprintf(b, "%s/%d %s K%d: %s\n", label, i, s.Protocol, s.N, verdict)
	}
}

// TestTrialsGolden pins the outcome of every chaos schedule of the sync
// generator at seed 1 and the Async+Dead generator at seed 7, and, for a
// panel of honest-versus-faulty trials per problem checker, the correct
// set, each decision with its round and the first violated condition.
// A change to how a trial is built, run or judged shows up trial by
// trial. Run with -update to rewrite the golden file.
func TestTrialsGolden(t *testing.T) {
	var b strings.Builder
	renderChaosOutcomes(&b, "sync", SmokeSeed, GenOpts{})
	renderChaosOutcomes(&b, "async-dead", AsyncSmokeSeed, GenOpts{Async: true, Dead: true})
	for _, c := range goldenTrialCases() {
		if err := renderTrialCase(&b, c); err != nil {
			t.Fatal(err)
		}
	}
	got := b.String()
	if *updateTrials {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trialsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(trialsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("trial results differ from %s at line %d:\n got %q\nwant %q", trialsGolden, i+1, g, w)
			}
		}
	}
}
