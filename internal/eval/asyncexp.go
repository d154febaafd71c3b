package eval

import (
	"fmt"
	"math/bits"
	"strings"

	"flm/internal/chaos"
	"flm/internal/graph"
	"flm/internal/initdead"
	"flm/internal/sim"
	"flm/internal/sweep"
)

// E19 parameters: the possibility side sweeps every initially-dead
// subset of size <= t exhaustively, first synchronously and then under
// e19DelaySeeds seeded adversarial delay schedules with per-message
// extra delay up to e19MaxDelay.
const (
	e19DelaySeeds = 2
	e19MaxDelay   = 2
)

// E20 parameters: the pinned async smoke pair shared by `make
// chaos-async` (which CI runs) and the chaos package's pinned tests.
const (
	e20Seed   = chaos.AsyncSmokeSeed
	e20Trials = chaos.AsyncSmokeTrials
)

// deadSubsetsUpTo enumerates every subset of names with size <= k, in
// mask order (deterministic), as initially-dead chaos actions.
func deadSubsetsUpTo(names []string, k int) [][]chaos.Action {
	var out [][]chaos.Action
	for mask := 0; mask < 1<<len(names); mask++ {
		if bits.OnesCount(uint(mask)) > k {
			continue
		}
		var sub []chaos.Action
		for i, name := range names {
			if mask&(1<<i) != 0 {
				sub = append(sub, chaos.Action{Node: name, Strategy: "dead"})
			}
		}
		out = append(out, sub)
	}
	return out
}

func deadNames(dead []chaos.Action) string {
	names := make([]string, len(dead))
	for i, a := range dead {
		names[i] = a.Node
	}
	return "{" + strings.Join(names, ",") + "}"
}

func alternatingBits(n int) []string {
	in := make([]string, n)
	for i := range in {
		in[i] = fmt.Sprint(i % 2)
	}
	return in
}

// RunE19 charts the initially-dead possibility frontier. On the
// possible side (n > 2t) it runs the FLP Section 4 protocol against
// EVERY initially-dead subset of size <= t — synchronously and under
// seeded adversarial delay schedules — and requires termination,
// agreement, and strong validity on each run. On the impossible side
// (n = 2t) it exhibits the matching counterexample: a partition delay
// schedule that defers all cross-group traffic past the round horizon,
// under which the two halves decide their own (different) inputs.
func RunE19() (*Result, error) {
	type sizeRow struct {
		n, t                           int
		subsets, syncRuns, delayedRuns int
	}
	possible := []struct{ n, t int }{{3, 1}, {5, 2}, {7, 3}}
	rows, err := sweep.Map(len(possible), func(i int) (sizeRow, error) {
		size := possible[i]
		names := graph.Complete(size.n).Names()
		row := sizeRow{n: size.n, t: size.t}
		for _, dead := range deadSubsetsUpTo(names, size.t) {
			row.subsets++
			s := chaos.Schedule{Protocol: "initdead", N: size.n, F: size.t,
				Rounds: initdead.Rounds(0), Inputs: alternatingBits(size.n), Actions: dead}
			green := func(how string) error {
				o := chaos.RunSchedule(s)
				if o.EngineErr != nil {
					return o.EngineErr
				}
				if o.Violation != nil {
					return fmt.Errorf("n=%d t=%d dead=%s %s: %w", size.n, size.t, deadNames(dead), how, o.Violation)
				}
				return nil
			}
			if err := green("synchronous"); err != nil {
				return row, err
			}
			row.syncRuns++
			s.Rounds = initdead.Rounds(e19MaxDelay)
			for seed := int64(1); seed <= e19DelaySeeds; seed++ {
				s.Delays = sim.SeededDelays(seed, names, s.Rounds, e19MaxDelay).Rules
				if err := green(fmt.Sprintf("delay seed %d", seed)); err != nil {
					return row, err
				}
				row.delayedRuns++
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}

	frontier := &Table{
		Title:   "n > 2t: the FLP Section 4 protocol decides under every initially-dead subset of size <= t",
		Columns: []string{"n", "t", "dead subsets", "sync runs", "delayed runs", "all correct"},
		Notes: []string{
			"exhaustive over dead subsets; every run checked for termination, agreement, and strong validity",
			fmt.Sprintf("delayed runs: %d seeded adversarial schedules per subset, per-message extra delay <= %d, budget Rounds(D) = 2D+4", e19DelaySeeds, e19MaxDelay),
		},
	}
	totalRuns := 0
	for _, r := range rows {
		frontier.AddRow(r.n, r.t, r.subsets, r.syncRuns, r.delayedRuns, true)
		totalRuns += r.syncRuns + r.delayedRuns
	}

	impossible := []struct{ n, t int }{{2, 1}, {4, 2}, {6, 3}}
	witnesses, err := sweep.Map(len(impossible), func(i int) (string, error) {
		size := impossible[i]
		g := graph.Complete(size.n)
		inputs := make(map[string]sim.Input, size.n)
		for j, name := range g.Names() {
			inputs[name] = sim.BoolInput(j >= size.n-size.t)
		}
		trial := sim.Trial{G: g, Inputs: inputs, Honest: initdead.New(size.t), Rounds: initdead.Rounds(0) + size.n}
		run, live, err := trial.Run(sim.ExecuteOpts{Delays: initdead.PartitionDelays(g.Names(), size.t, trial.Rounds)})
		if err != nil {
			return "", err
		}
		rep := initdead.Check(run, live)
		if rep.Agreement == nil {
			return "", fmt.Errorf("n=%d t=%d: partition delays failed to split the run (%+v)", size.n, size.t, rep)
		}
		return rep.Agreement.Error(), nil
	})
	if err != nil {
		return nil, err
	}

	split := &Table{
		Title:   "n = 2t: a partition delay schedule manufactures disagreement",
		Columns: []string{"n", "t", "schedule", "witnessed violation"},
		Notes: []string{
			"cross-group messages are delayed past the round horizon — the finite-run rendering of \"forever\"",
			"each group holds exactly the n-t-1 foreign records the protocol waits for, so both proceed alone and decide their own inputs",
		},
	}
	for i, size := range impossible {
		split.AddRow(size.n, size.t,
			fmt.Sprintf("groups %d+%d, all cross traffic delayed", size.n-size.t, size.t),
			witnesses[i])
	}

	return &Result{
		ID:    "E19",
		Name:  "The n > 2t initially-dead possibility baseline",
		Paper: "FLP Section 4 protocol; contrast with the paper's Fault-axiom adversaries",
		Summary: fmt.Sprintf(
			"%d protocol runs across every dead subset <= t on both sides of the frontier: all correct for n > 2t (synchronous and delayed), disagreement witnessed at n = 2t for every size tried.",
			totalRuns),
		Tables: []*Table{frontier, split},
	}, nil
}

// RunE20 fires the chaos panel in its adversarial-asynchrony mode:
// every sync-panel trial runs under a seeded delay schedule, initially
// dead subsets and the initdead protocol join the draw, and every
// violation is shrunk — delay rules included — to a 1-minimal
// counterexample.
func RunE20() (*Result, error) {
	panel := &Table{
		Title:   fmt.Sprintf("Async chaos panel (seed %d, %d trials): delay schedules + initially-dead subsets", e20Seed, e20Trials),
		Columns: []string{"protocol", "trials", "adequate", "delayed", "violations", "all adequate green"},
		Notes: []string{
			fmt.Sprintf("reproduce any row with: flm chaos -async -deadset -seed %d -trials %d", e20Seed, e20Trials),
			"sync-panel trials under delays count as inadequate by construction: delivery past the round horizon is message loss",
			"initdead trials are adequate iff n > 2t; inadequate ones may draw the partition schedule with split inputs",
		},
	}
	findings := &Table{
		Title:   "Shrunk counterexamples (minimal faulty actions + delay rules that still violate)",
		Columns: []string{"trial", "schedule", "violated condition", "shrunk"},
		Notes: []string{
			"delay rules shrink too: ddmin-style chunk removal to 1-minimality, then per-rule extra-delay weakening",
		},
	}
	rep, err := chaosPanel(chaos.Config{Seed: e20Seed, Trials: e20Trials, Async: true, Dead: true}, panel, findings)
	if err != nil {
		return nil, err
	}

	return &Result{
		ID:    "E20",
		Name:  "Chaos panel under adversarial asynchrony",
		Paper: "Fault axiom (Section 2) extended with delay adversaries; FLP Section 4 frontier",
		Summary: fmt.Sprintf(
			"%d randomized attack schedules under adversarial delays and initially-dead subsets: %d green, %d violations — every one on an inadequate configuration, every one shrunk (delay rules included).",
			rep.Trials, rep.Green, len(rep.Expected)),
		Tables: []*Table{panel, findings},
	}, nil
}
