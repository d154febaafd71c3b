package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"flm/internal/graph"
	"flm/internal/obs"
	"flm/internal/sim"
)

// Splice is a behavior of G constructed from a scenario of the covering
// run, per the paper's central move: the nodes of U stay correct (their
// devices and inputs are carried over through Phi), and every other
// G-node becomes a Fault-axiom replay device exhibiting exactly the
// traffic the scenario's inedge border carried in S.
type Splice struct {
	Run     *sim.Run          // the constructed behavior of G
	Correct []string          // G-names of the correct nodes (sorted)
	Faulty  []string          // G-names of the faulty nodes (sorted)
	Rename  map[string]string // S-name -> G-name for scenario + border nodes
	UNodes  []string          // S-names of the scenario nodes
}

// SpliceScenario builds the behavior of G corresponding to the scenario
// of the S-node subset u in runS. It requires Phi restricted to u to be
// an isomorphism of induced subgraphs (checked), constructs the G-system
// (original builders for Phi(u), replay devices elsewhere), executes it,
// and verifies — this is the Locality axiom made checkable — that the
// correct nodes' behaviors in the constructed run are identical to the
// scenario in S, byte for byte.
//
// builders is keyed by G-node name; inputs for correct G-nodes are taken
// from the covering run through Phi. Every call executes its G-run
// (through the run cache, which serves repeats) and runs its own
// self-check.
//
// When a tracer is installed, the splice is wrapped in a "core.splice"
// span recording the scenario size and — on success — the correct and
// faulty G-node sets of the constructed behavior; the G-run's
// "sim.execute" span nests inside it. Without a tracer SpliceScenario
// allocates exactly what spliceCore does
// (TestSpliceUntracedAllocsLikeBody).
func SpliceScenario(inst *Installation, runS *sim.Run, u []int, builders map[string]sim.Builder) (*Splice, error) {
	ctx := context.Background()
	var span *obs.Span
	if obs.Enabled() {
		ctx, span = obs.StartSpan(ctx, "core.splice",
			obs.Int("scenario_nodes", len(u)),
			obs.Int("cover_nodes", inst.Cover.S.N()))
	}
	sp, err := spliceCore(ctx, inst, runS, u, builders)
	if span != nil {
		if err != nil {
			span.SetAttrs(obs.Str("error", err.Error()))
		}
		if sp != nil {
			span.SetAttrs(
				obs.Str("correct", strings.Join(sp.Correct, ",")),
				obs.Str("faulty", strings.Join(sp.Faulty, ",")))
		}
		span.End()
	}
	return sp, err
}

// spliceCore is SpliceScenario's body. Its context carries the
// "core.splice" span under tracing, so the constructed G-run's
// "sim.execute" span nests inside it; it is never cancellable (a
// cancellable context would bypass the run cache).
func spliceCore(ctx context.Context, inst *Installation, runS *sim.Run, u []int, builders map[string]sim.Builder) (*Splice, error) {
	cover := inst.Cover
	if err := cover.InducedIsomorphic(u); err != nil {
		return nil, fmt.Errorf("core: scenario not spliceable: %w", err)
	}
	s, g := cover.S, cover.G

	sp := &Splice{Rename: make(map[string]string, len(u))}
	correctG := make(map[int]int, len(u)) // G-node -> S-preimage in u
	for _, sn := range u {
		gn := cover.Phi[sn]
		correctG[gn] = sn
		sp.Rename[s.Name(sn)] = g.Name(gn)
		sp.Correct = append(sp.Correct, g.Name(gn))
		sp.UNodes = append(sp.UNodes, s.Name(sn))
	}
	sort.Strings(sp.Correct)
	sort.Strings(sp.UNodes)

	p := sim.Protocol{
		Builders: make(map[string]sim.Builder, g.N()),
		Inputs:   make(map[string]sim.Input, g.N()),
	}
	for gn := 0; gn < g.N(); gn++ {
		gName := g.Name(gn)
		if sn, ok := correctG[gn]; ok {
			b, found := builders[gName]
			if !found {
				return nil, fmt.Errorf("core: no builder for correct node %q", gName)
			}
			p.Builders[gName] = b
			p.Inputs[gName] = inst.Inputs[s.Name(sn)]
			continue
		}
		// Faulty node: replay, toward each correct neighbor, the traffic
		// of the corresponding S border edge (the Fault axiom device
		// F_A(E_1,...,E_d)).
		scripts := make(map[string][]sim.Payload)
		for _, gv := range g.Neighbors(gn) {
			sn, ok := correctG[gv]
			if !ok {
				continue // traffic between faulty nodes is irrelevant
			}
			pre := cover.EdgePreimage(sn, gn)
			e := graph.Edge{From: s.Name(pre), To: s.Name(sn)}
			seq, found := runS.Edges[e]
			if !found {
				return nil, fmt.Errorf("core: covering run lacks border edge %v", e)
			}
			scripts[g.Name(gv)] = seq
			sp.Rename[s.Name(pre)] = gName
		}
		p.Builders[gName] = sim.ReplayBuilder(scripts)
		p.Inputs[gName] = sim.Input(sim.EncodeBool(false)) // immaterial
		sp.Faulty = append(sp.Faulty, gName)
	}
	sort.Strings(sp.Faulty)

	sys, err := sim.NewSystem(g, p)
	if err != nil {
		return nil, err
	}
	runG, err := sim.ExecuteCtx(ctx, sys, runS.Rounds, sim.FullRecording)
	if err != nil {
		return nil, err
	}
	sp.Run = runG

	// Locality-axiom self-check: the spliced scenario must be identical
	// to the covering scenario under the renaming, including the border
	// traffic the faulty nodes exhibited.
	scS, err := sim.Extract(runS, sp.UNodes)
	if err != nil {
		return nil, err
	}
	scG, err := sim.Extract(runG, sp.Correct)
	if err != nil {
		return nil, err
	}
	if err := scS.EqualUnder(scG, sp.Rename, true); err != nil {
		return nil, fmt.Errorf("core: locality axiom self-check failed (simulator bug?): %w", err)
	}
	return sp, nil
}

// DecisionOfS returns, from the spliced G-run, the decision of the
// G-image of the given S-node. By the locality check it equals the
// S-node's decision in the covering run.
func (sp *Splice) DecisionOfS(sName string) (sim.Decision, error) {
	gName, ok := sp.Rename[sName]
	if !ok {
		return sim.Decision{}, fmt.Errorf("core: S-node %q not in splice", sName)
	}
	return sp.Run.DecisionOf(gName)
}
