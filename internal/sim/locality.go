package sim

import (
	"fmt"

	"flm/internal/graph"
)

// CheckLocality verifies the paper's Locality axiom on a concrete run:
// replacing everything outside the node subset U with Fault-axiom replay
// devices that reproduce exactly the recorded inedge-border traffic must
// leave the scenario of U unchanged (same snapshots, decisions, and
// internal traffic). It returns the replayed run for further inspection.
//
// The original devices for U are rebuilt with the given builders (devices
// are stateful, so the caller supplies fresh instances via the original
// protocol).
func CheckLocality(run *Run, nodes []string, builders map[string]Builder) (*Run, error) {
	inSet := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		inSet[n] = true
	}
	g := run.G
	p := Protocol{
		Builders: make(map[string]Builder, g.N()),
		Inputs:   make(map[string]Input, g.N()),
	}
	for u := 0; u < g.N(); u++ {
		name := g.Name(u)
		p.Inputs[name] = run.Inputs[u]
		if inSet[name] {
			b, ok := builders[name]
			if !ok {
				return nil, fmt.Errorf("sim: no builder supplied for scenario node %q", name)
			}
			p.Builders[name] = b
			continue
		}
		// Outside node: replay its recorded traffic on every outedge. The
		// replay device only reads its scripts, so they share the run's.
		scripts := make(map[string][]Payload)
		for _, v := range g.Neighbors(u) {
			e := graph.Edge{From: name, To: g.Name(v)}
			scripts[g.Name(v)] = run.Edges[e]
		}
		p.Builders[name] = ReplayBuilder(scripts)
	}
	sys, err := NewSystem(g, p)
	if err != nil {
		return nil, err
	}
	replayed, err := Execute(sys, run.Rounds)
	if err != nil {
		return nil, err
	}
	orig, err := Extract(run, nodes)
	if err != nil {
		return nil, err
	}
	again, err := Extract(replayed, nodes)
	if err != nil {
		return nil, err
	}
	if err := orig.EqualUnder(again, nil, true); err != nil {
		return nil, fmt.Errorf("sim: locality axiom violated: %w", err)
	}
	return replayed, nil
}
