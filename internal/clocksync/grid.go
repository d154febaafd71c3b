package clocksync

import (
	"fmt"

	"flm/internal/sweep"
)

// This file is the parallel grid evaluator for the Corollary 12-15
// sweeps: a grid is (parameter cases) x (device families), and every
// cell runs a full Theorem 8 ring argument. Cells are independent — each
// builds its own timed system from its Params and fresh devices — so the
// grid fans out through the sweep engine.

// GridCase is one parameter row of a corollary grid.
type GridCase struct {
	Name   string
	Params Params
}

// GridDevice is one device family evaluated at every grid case. Builders
// receives the case's Params so the family can adapt (e.g. use the
// case's lower envelope).
type GridDevice struct {
	Name     string
	Builders func(Params) map[string]Builder
}

// EvalGrid runs Theorem8 for every (case, device) cell in parallel and
// returns the results as out[caseIdx][deviceIdx], in the same order the
// cases and devices were given. Each case's plan — induction length,
// verified ring cover, scenarios, the h-iterate table, and the evaluation
// time hᵏ(t') — is built once and shared (read-only) by all of that
// case's device cells, rather than rebuilt per cell.
func EvalGrid(cases []GridCase, devices []GridDevice) ([][]*Result, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("clocksync: grid needs at least one device family")
	}
	type planOutcome struct {
		plan *plan
		err  error
	}
	sizes := make([]int, len(cases))
	for i := range sizes {
		sizes[i] = len(devices)
	}
	out, err := sweep.Grouped(sizes,
		func(c int) planOutcome {
			p, err := trianglePlan(cases[c].Params)
			return planOutcome{plan: p, err: err}
		},
		func(c, d int, p planOutcome) (*Result, error) {
			if p.err != nil {
				return nil, fmt.Errorf("%s / %s: %w", cases[c].Name, devices[d].Name, p.err)
			}
			r, err := p.plan.run(devices[d].Builders(cases[c].Params))
			if err != nil {
				return nil, fmt.Errorf("%s / %s: %w", cases[c].Name, devices[d].Name, err)
			}
			return r, nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TrivialLowerFamily is the no-communication lower-envelope device family
// on the triangle ring, for grid sweeps.
func TrivialLowerFamily() GridDevice {
	return GridDevice{Name: "trivial-lower", Builders: func(p Params) map[string]Builder {
		return map[string]Builder{
			"a": NewTrivialLower(p.L), "b": NewTrivialLower(p.L), "c": NewTrivialLower(p.L),
		}
	}}
}

// ChaseMaxFamily is the agreement-chasing device family on the triangle
// ring, for grid sweeps.
func ChaseMaxFamily() GridDevice {
	return GridDevice{Name: "chase-max", Builders: func(p Params) map[string]Builder {
		return map[string]Builder{
			"a": NewChaseMax(p.L), "b": NewChaseMax(p.L), "c": NewChaseMax(p.L),
		}
	}}
}
