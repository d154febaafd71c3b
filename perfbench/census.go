package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"flm/internal/adversary"
	"flm/internal/byzantine"
	"flm/internal/dolev"
	"flm/internal/graph"
	"flm/internal/sim"
	"flm/internal/sweep"
)

// The census workload runs seeded batches of possibility trials on
// adequate graphs, decision-only, through sweep with two workers: EIG,
// phase king and Turpin-Coan on complete graphs, and EIG over Dolev
// routing on sparse graphs. Each trial corrupts f nodes with strategies
// from adversary.Panel and must satisfy Byzantine agreement. The trials
// of a batch are distinct systems, so the run cache only ever misses
// (complete graphs) or is bypassed (Dolev overlay devices carry no
// fingerprint): L1 is pure cost here.

// censusKind is one op kind: a protocol on an adequate graph, and the
// number of trials per batch (sized so every kind costs about the same).
type censusKind struct {
	name   string
	g      *graph.Graph
	f      int
	honest sim.Builder
	rounds int
	trials int
}

// censusTrial is one trial's seeded inputs.
type censusTrial struct {
	bits  uint64 // node j's input is bit j
	bad   []int  // faulty node indices (f distinct nodes)
	strat []int  // panel strategy per faulty node
}

type censusWorkload struct {
	seed  int64
	kinds []censusKind
}

// censusSpecs are the kinds: graph, fault bound, protocol, batch size.
// Complete graphs start at K6 so a batch of distinct trials fits in the
// kind's configuration space with room to spare.
var censusSpecs = []struct {
	name   string
	graph  func() *graph.Graph
	f      int
	proto  string // "eig", "phase-king", "turpin-coan", "dolev-eig"
	trials int
}{
	{"eig.K6", func() *graph.Graph { return graph.Complete(6) }, 1, "eig", 675},
	{"eig.K7", func() *graph.Graph { return graph.Complete(7) }, 2, "eig", 214},
	{"phase-king.K6", func() *graph.Graph { return graph.Complete(6) }, 1, "phase-king", 1000},
	{"phase-king.K9", func() *graph.Graph { return graph.Complete(9) }, 2, "phase-king", 440},
	{"turpin-coan.K6", func() *graph.Graph { return graph.Complete(6) }, 1, "turpin-coan", 490},
	{"turpin-coan.K7", func() *graph.Graph { return graph.Complete(7) }, 2, "turpin-coan", 205},
	{"dolev-eig.wheel7", func() *graph.Graph { return graph.Wheel(7) }, 1, "dolev-eig", 90},
	{"dolev-eig.petersen", func() *graph.Graph { return graph.Petersen() }, 1, "dolev-eig", 40},
	{"dolev-eig.circulant7", func() *graph.Graph { return graph.Circulant(7, 1, 2) }, 1, "dolev-eig", 110},
	{"dolev-eig.hypercube3", func() *graph.Graph { return graph.Hypercube(3) }, 1, "dolev-eig", 66},
}

// buildCensusKinds builds the graphs, checks they are adequate, and
// builds the Dolev routers: the graph layer's set-up work.
func buildCensusKinds(h *harness) ([]censusKind, error) {
	var kinds []censusKind
	for _, s := range censusSpecs {
		var (
			k   = censusKind{name: s.name, f: s.f, trials: s.trials}
			err error
		)
		h.graphCall(func() {
			k.g = s.graph()
			if !k.g.IsAdequate(s.f) {
				err = fmt.Errorf("%s: graph is not adequate for f=%d", s.name, s.f)
				return
			}
			names := k.g.Names()
			switch s.proto {
			case "eig":
				k.honest, k.rounds = byzantine.NewEIG(s.f, names), byzantine.EIGRounds(s.f)
			case "phase-king":
				k.honest, k.rounds = byzantine.NewPhaseKing(s.f, names), byzantine.PhaseKingRounds(s.f)
			case "turpin-coan":
				k.honest, k.rounds = byzantine.NewTurpinCoan(s.f, names), byzantine.TurpinCoanRounds(s.f)
			case "dolev-eig":
				var r *dolev.Router
				if r, err = dolev.NewRouter(k.g, s.f); err != nil {
					return
				}
				k.honest, k.rounds = dolev.Overlay(r, byzantine.NewEIG(s.f, names)), r.Rounds(byzantine.EIGRounds(s.f))
			}
		})
		if err != nil {
			return nil, err
		}
		if space := configSpace(k.g.N(), k.f, len(adversary.Panel(0))); float64(k.trials) > space/2 {
			return nil, fmt.Errorf("%s: %d trials in a space of %.0f distinct configurations", s.name, k.trials, space)
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// configSpace is the number of distinct trials of a kind: input
// patterns x faulty sets x strategy assignments.
func configSpace(n, f, strategies int) float64 {
	space := math.Pow(2, float64(n))
	for i := 0; i < f; i++ {
		space *= float64(n-i) / float64(i+1) * float64(strategies)
	}
	return space
}

// drawTrials draws count distinct trials: no two share both their input
// pattern and their faulty nodes with strategies, so no two runs of a
// batch are the same system and every run-cache lookup misses.
func drawTrials(r *rng, n, f, strategies, count int) []censusTrial {
	trials := make([]censusTrial, 0, count)
	seen := make(map[string]bool, count)
	for len(trials) < count {
		t := censusTrial{bits: r.next() & (1<<uint(n) - 1), bad: r.perm(n)[:f]}
		sort.Ints(t.bad)
		for range t.bad {
			t.strat = append(t.strat, r.intn(strategies))
		}
		key := fmt.Sprint(t.bits, t.bad, t.strat)
		if !seen[key] {
			seen[key] = true
			trials = append(trials, t)
		}
	}
	return trials
}

func (w *censusWorkload) setup(h *harness) error {
	err := h.timeSetupStep(func() (err error) {
		w.kinds, err = buildCensusKinds(h)
		return err
	})
	if err != nil {
		return err
	}
	h.setupPass(w.pass(-1))
	return nil
}

// pass draws every kind's trials for pass k and orders the kinds.
func (w *censusWorkload) pass(k int) []op {
	panelSize := len(adversary.Panel(0))
	ops := make([]op, len(w.kinds))
	for i, kind := range w.kinds {
		r := newRNG(w.seed, 3, int64(k), int64(i))
		trials := drawTrials(r, kind.g.N(), kind.f, panelSize, kind.trials)
		ops[i] = censusOp(kind, int64(r.next()>>1), trials)
	}
	p := newRNG(w.seed, 4, int64(k)).perm(len(ops))
	out := make([]op, len(ops))
	for i, j := range p {
		out[i] = ops[j]
	}
	return out
}

// censusOutcome is one trial's result.
type censusOutcome struct {
	ok       bool
	err      error
	decision string
}

func censusOp(k censusKind, panelSeed int64, trials []censusTrial) op {
	names := k.g.Names()
	return op{
		kind:  k.name,
		input: fmt.Sprintf("panel seed %d, trials %v", panelSeed, trials),
		run: func(env *opEnv) (any, error) {
			var out []censusOutcome
			err := env.call("bench.census", func() (err error) {
				honest := env.wrap(k.honest)
				panel := adversary.Panel(panelSeed)
				corrupted := make([]sim.Builder, len(panel))
				for i, s := range panel {
					corrupted[i] = s.Corrupt(honest)
				}
				out, err = sweep.Map(len(trials), func(i int) (censusOutcome, error) {
					t := trials[i]
					inputs := make(map[string]sim.Input, len(names))
					for j, name := range names {
						inputs[name] = sim.BoolInput(t.bits>>uint(j)&1 == 1)
					}
					faulty := make(map[string]sim.Builder, len(t.bad))
					for j, b := range t.bad {
						faulty[names[b]] = corrupted[t.strat[j]]
					}
					run, correct, rep, err := byzantine.Trial{
						G: k.g, Inputs: inputs, Honest: honest, Faulty: faulty, Rounds: k.rounds,
					}.RunWith(sim.ExecuteOpts{})
					if err != nil {
						return censusOutcome{}, err
					}
					d, _ := run.DecisionOf(correct[0])
					return censusOutcome{ok: rep.OK(), err: rep.Err(), decision: d.Value}, nil
				})
				return err
			})
			return out, err
		},
		check: func(res any, st *opStats) (string, error) {
			out := res.([]censusOutcome)
			if len(out) != len(trials) {
				return "", fmt.Errorf("%d outcomes for %d trials", len(out), len(trials))
			}
			h := fnv.New64a()
			for i, o := range out {
				if !o.ok {
					return "", fmt.Errorf("trial %d (faulty %v) broke agreement: %v", i, trials[i].bad, o.err)
				}
				h.Write([]byte(o.decision))
				h.Write([]byte{0})
			}
			return fmt.Sprintf("%s %d trials agree, decisions %x", k.name, len(out), h.Sum64()), nil
		},
	}
}

func (w *censusWorkload) precheck() error { return coldPrecheck() }
func (w *censusWorkload) close()          {}
