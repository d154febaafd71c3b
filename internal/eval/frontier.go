package eval

import (
	"fmt"

	"flm/internal/adversary"
	"flm/internal/byzantine"
	"flm/internal/core"
	"flm/internal/dolev"
	"flm/internal/graph"
	"flm/internal/sim"
	"flm/internal/sweep"
)

// RunE17 sweeps a zoo of graph families across the adequacy frontier for
// f = 1: on every adequate graph a working protocol (EIG, routed through
// Dolev paths when the graph is sparse) survives the attack panel; on
// every inadequate graph the engine's covering argument defeats the
// natural device, with the failing bound (nodes or connectivity)
// identified automatically.
func RunE17() (*Result, error) {
	res := &Result{
		ID: "E17", Name: "The adequacy frontier across graph families",
		Paper: "Theorem 1 both bounds + tightness, swept as one census",
		Summary: "For each graph: adequacy per n >= 3f+1 and connectivity >= 2f+1 (f=1); " +
			"adequate graphs run EIG (over Dolev routing when sparse) against the panel, " +
			"inadequate graphs are handed to the matching impossibility chain.",
	}
	t := &Table{
		Title:   "Census (f = 1)",
		Columns: []string{"graph", "n", "conn", "diam", "adequate", "verdict"},
	}
	zoo := []struct {
		name string
		g    *graph.Graph
	}{
		{"K3 (triangle)", graph.Triangle()},
		{"K4", graph.Complete(4)},
		{"Diamond", graph.Diamond()},
		{"Ring(6)", graph.Ring(6)},
		{"Star(5)", graph.Star(5)},
		{"Line(4)", graph.Line(4)},
		{"Wheel(7)", graph.Wheel(7)},
		{"Petersen", graph.Petersen()},
		{"Hypercube(3)", graph.Hypercube(3)},
		{"K_{3,3}", graph.CompleteBipartite(3, 3)},
		{"Circulant(7;1,2)", graph.Circulant(7, 1, 2)},
		{"Grid(3,3)", graph.Grid(3, 3)},
	}
	const f = 1
	// The census is embarrassingly parallel on two levels: graphs fan out
	// here, and each adequate graph's attack sweep fans out again inside
	// frontierVerdict. Rows are collected in zoo order.
	verdicts, err := sweep.Map(len(zoo), func(i int) (string, error) {
		v, err := frontierVerdict(zoo[i].g, f)
		if err != nil {
			return "", fmt.Errorf("%s: %w", zoo[i].name, err)
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	for i, z := range zoo {
		g := z.g
		t.AddRow(z.name, g.N(), g.VertexConnectivity(), g.Diameter(),
			fmt.Sprint(g.IsAdequate(f)), verdicts[i])
	}
	t.Notes = append(t.Notes,
		"every verdict is computed, not asserted: panel sweeps on the adequate side, covering chains on the inadequate side")
	res.Tables = append(res.Tables, t)
	return res, nil
}

// frontierVerdict produces the per-graph outcome string.
func frontierVerdict(g *graph.Graph, f int) (string, error) {
	if g.IsAdequate(f) {
		var honest sim.Builder
		label := "EIG"
		rounds := byzantine.EIGRounds(f)
		if g.NumEdges() < g.N()*(g.N()-1)/2 {
			r, err := dolev.NewRouter(g, f)
			if err != nil {
				return "", err
			}
			honest = dolev.Overlay(r, byzantine.NewEIG(f, g.Names()))
			rounds = r.Rounds(rounds)
			label = "EIG/Dolev"
		} else {
			honest = byzantine.NewEIG(f, g.Names())
		}
		passed, total, err := attackSweep(g, func() sim.Builder { return honest }, rounds, bitPatternsFor(g.N(), 2), 47)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s passes %d/%d attack configs", label, passed, total), nil
	}
	// Inadequate: pick the failing bound and run the matching chain.
	if g.N() <= 3*f {
		blocks := [3][]int{}
		for i := 0; i < g.N(); i++ {
			blocks[i%3] = append(blocks[i%3], i)
		}
		cr, err := core.ByzantineNodes(g, f, blocks[0], blocks[1], blocks[2],
			uniformBuilders(g, byzantine.NewMajority(2)), "majority", 8)
		if err != nil {
			return "", err
		}
		v := cr.Violations[0]
		return fmt.Sprintf("engine (nodes): %s %s", v.Link, v.Condition), nil
	}
	bSet, dSet, u, v, err := g.CutForFaults(f)
	if err != nil {
		return "", err
	}
	cr, err := core.ByzantineConnectivity(g, f, bSet, dSet, u, v,
		uniformBuilders(g, byzantine.NewMajority(3)), "majority", 10)
	if err != nil {
		return "", err
	}
	viol := cr.Violations[0]
	return fmt.Sprintf("engine (connectivity, cut %d+%d): %s %s",
		len(bSet), len(dSet), viol.Link, viol.Condition), nil
}

// attackSweepPanelSize reports the panel size (used by tests that pin
// sweep totals).
func attackSweepPanelSize() int { return len(adversary.Panel(0)) }
