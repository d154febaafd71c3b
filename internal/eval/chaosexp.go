package eval

import (
	"context"
	"fmt"

	"flm/internal/chaos"
)

// E18 parameters: the pinned seed and trial count shared by `make
// chaos` (which CI runs), the chaos package tests, and EXPERIMENTS.md.
// They alias the chaos package's exported smoke constants so the
// experiment can never drift from the pinned pair; ci_test.go
// cross-checks the Makefile defaults against the same values.
const (
	e18Seed   = chaos.SmokeSeed
	e18Trials = chaos.SmokeTrials
)

// RunE18 fires the chaos adversary panel: seeded randomized attack
// schedules composed from the adversary strategies, run against EIG,
// phase king, Turpin-Coan, DLPSW approximate agreement, and clock
// synchronization on adequate AND inadequate complete graphs. The
// paper's predictions are the pass criteria — adequate configurations
// all green, inadequate ones violated — and every violation is shrunk
// to a minimal counterexample.
func RunE18() (*Result, error) {
	panel := &Table{
		Title:   fmt.Sprintf("Chaos panel (seed %d, %d trials): violations appear exactly on inadequate graphs", e18Seed, e18Trials),
		Columns: []string{"protocol", "trials", "adequate", "inadequate", "violations", "all adequate green"},
		Notes: []string{
			"schedules are pure functions of (seed, trial); reproduce any row with: flm chaos -seed 1 -trials 64",
			"strategies drawn per trial: silent, crash, omission, noise, equivocation, mirror, replay, clock-liar",
		},
	}
	findings := &Table{
		Title:   "Shrunk counterexamples (minimal faulty actions that still violate)",
		Columns: []string{"trial", "schedule", "violated condition", "shrunk faults"},
		Notes: []string{
			"each counterexample is 1-minimal: restoring any faulty node to honesty, or weakening its strategy, loses the violation",
		},
	}
	rep, err := chaosPanel(chaos.Config{Seed: e18Seed, Trials: e18Trials}, panel, findings)
	if err != nil {
		return nil, err
	}

	return &Result{
		ID:    "E18",
		Name:  "Chaos adversary panel across the adequacy boundary",
		Paper: "Fault axiom (Section 2) + Theorems 1,5,8 predictions",
		Summary: fmt.Sprintf(
			"%d randomized attack schedules: %d green, %d violations — every one on an inadequate graph, every one shrunk to a minimal counterexample.",
			rep.Trials, rep.Green, len(rep.Expected)),
		Tables: []*Table{panel, findings},
	}, nil
}

// chaosPanel runs the chaos panel cfg selects, fails on any unexpected
// failure, and fills an experiment's two tables. panel gets one row per
// protocol in the order the generator first drew it: trials, adequate,
// then inadequate trials, or delayed ones in async mode, violations and
// the all-green flag. findings gets one row per expected violation with
// its shrunk counterexample, whose delay rules are counted in async mode.
func chaosPanel(cfg chaos.Config, panel, findings *Table) (*chaos.Report, error) {
	rep, err := chaos.Run(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	if !rep.OK() {
		return nil, fmt.Errorf("chaos panel found unexpected failures:\n%s", rep.Render())
	}
	type tally struct{ trials, adequate, delayed, violations int }
	byProto := map[string]*tally{}
	var protoOrder []string
	for i := 0; i < cfg.Trials; i++ {
		s := chaos.NewScheduleWith(cfg.Seed, i, chaos.GenOpts{Async: cfg.Async, Dead: cfg.Dead})
		tl := byProto[s.Protocol]
		if tl == nil {
			tl = &tally{}
			byProto[s.Protocol] = tl
			protoOrder = append(protoOrder, s.Protocol)
		}
		tl.trials++
		if s.Adequate {
			tl.adequate++
		}
		if len(s.Delays) > 0 {
			tl.delayed++
		}
	}
	for _, f := range rep.Expected {
		byProto[f.Schedule.Protocol].violations++
	}
	for _, p := range protoOrder {
		tl := byProto[p]
		third := tl.trials - tl.adequate
		if cfg.Async {
			third = tl.delayed
		}
		panel.AddRow(p, tl.trials, tl.adequate, third, tl.violations, true)
	}
	for _, f := range rep.Expected {
		shrunk := "-"
		switch {
		case f.Shrunk == nil:
		case cfg.Async:
			shrunk = fmt.Sprintf("%d fault(s) + %d rule(s): %s",
				len(f.Shrunk.Actions), len(f.Shrunk.Delays), f.Shrunk.Describe())
		default:
			shrunk = fmt.Sprintf("%d: %s", len(f.Shrunk.Actions), f.Shrunk.Describe())
		}
		findings.AddRow(f.Trial, f.Schedule.Describe(), f.Violation, shrunk)
	}
	return rep, nil
}
