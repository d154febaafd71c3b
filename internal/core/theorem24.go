package core

import (
	"fmt"

	"flm/internal/firingsquad"
	"flm/internal/graph"
	"flm/internal/sim"
)

// Theorems 2 and 4 make one ring argument. The all-correct runs B0 and
// B1 of G, with every input 0 and every input 1, fix the decision round
// t. A ring of 4k positions covering G is built for t: a position is a
// node of the triangle's ring or a copy of G in a ring of copies.
// Positions 0..2k-1 hold input 1 and the rest input 0. Every scenario
// around the ring splices into a correct behavior of G with at most f
// faults, in which agreement (or simultaneous firing) chains its
// correct nodes' choices to the next scenario's. But by Lemma 3 the
// middle positions k and 3k, at least k > t edges from the other half,
// behave for k rounds as B1 and B0 do, so they choose differently, and
// some link must break.

// ringProblem is what the weak agreement and firing squad rings differ
// in: the checks and expectations of B0, B1 and the ring links, and the
// decision value whose rounds fix t ("" for every decision).
type ringProblem struct {
	baseExpect [2]string
	baseCheck  [2]check
	linkExpect string
	linkCheck  check
	tDecision  string
}

// weakRing is weak agreement: validity binds in B0 and B1, agreement on
// every link.
func weakRing(linkExpect string) ringProblem {
	return ringProblem{
		baseExpect: [2]string{
			"all-correct unanimous 0: choice + validity force 0",
			"all-correct unanimous 1: choice + validity force 1",
		},
		baseCheck:  [2]check{weakCheck(true), weakCheck(true)},
		linkExpect: linkExpect,
		linkCheck:  weakCheck(false),
	}
}

// firingSquadRing is the Byzantine firing squad, input 1 being the
// stimulus: B1 must fire and B0 must not, and the fire round of B1
// fixes t.
func firingSquadRing(base0, base1, linkExpect string) ringProblem {
	return ringProblem{
		baseExpect: [2]string{base0, base1},
		baseCheck:  [2]check{firingSquadCheck(true, false), firingSquadCheck(true, true)},
		linkExpect: linkExpect,
		linkCheck:  firingSquadCheck(false, false),
		tDecision:  firingsquad.Fired,
	}
}

// ring is a covering ring built for a decision round t: its k, its
// cover, the S-nodes per ring position (S-node s is at position
// s/width), and the scenarios to splice, in link order.
type ring struct {
	k, width int
	cover    *graph.Cover
	u        [][]int
}

// triangleRing is the 4k-node ring covering the triangle, k the least
// multiple of 3 above t (the paper's k > t'/δ with δ one round), with
// every adjacent pair of nodes as a scenario.
func triangleRing(t int) (ring, error) {
	k := t + 1
	for k%3 != 0 {
		k++
	}
	r := ring{k: k, width: 1, cover: graph.RingCoverTriangle(4 * k), u: make([][]int, 0, 4*k)}
	for i := 0; i < 4*k; i++ {
		r.u = append(r.u, []int{i, (i + 1) % (4 * k)})
	}
	return r, nil
}

// blockRing is the ring of 4k copies of g, k = t+1, with the a-c edges
// crossed into the next copy, so the blocks run ...a_i b_i c_i
// a_(i+1)...; each copy gives three scenarios, each one block faulty:
//
//	a_i ∪ b_i      (c faulty: faces c_(i+1) toward a, c_i toward b)
//	b_i ∪ c_i      (a faulty: faces a_i toward b, a_(i-1) toward c)
//	a_i ∪ c_(i+1)  (b faulty: faces b_i toward a, b_(i+1) toward c)
func blockRing(g *graph.Graph, block []int, a, b, c []int) func(t int) (ring, error) {
	return func(t int) (ring, error) {
		k, n := t+1, g.N()
		r := ring{k: k, width: n, cover: blockCover(g, block, 0, 2, 4*k), u: make([][]int, 0, 3*4*k)}
		for i := 0; i < 4*k; i++ {
			r.u = append(r.u,
				concat(inCopy(a, i, n), inCopy(b, i, n)),
				concat(inCopy(b, i, n), inCopy(c, i, n)),
				concat(inCopy(a, i, n), inCopy(c, (i+1)%(4*k), n)))
		}
		return r, nil
	}
}

// cutRing is the ring of 4k copies of g, k = t+1, with the a-d edges of
// the cut (bSet, dSet) crossed into the next copy; its scenarios are
// cutScenarios.
func cutRing(g *graph.Graph, bSet, dSet []int, uNode, vNode int) func(t int) (ring, error) {
	return func(t int) (ring, error) {
		k := t + 1
		cover, err := graph.CyclicCutCover(g, bSet, dSet, uNode, vNode, 4*k)
		if err != nil {
			return ring{}, err
		}
		return ring{k: k, width: g.N(), cover: cover, u: cutScenarios(g, bSet, dSet, uNode, 4*k)}, nil
	}
}

// cutScenarios lists, for i = 0..m-1 of a ring of m copies of g with
// the cut's a-d edges crossed, X_i then Y_i:
//
//	X_i = copy i without its d-nodes  (d faulty, masquerading from the
//	                                   two neighboring copies)
//	Y_i = c∪d of copy i, a of copy i-1  (b faulty)
func cutScenarios(g *graph.Graph, bSet, dSet []int, uNode, m int) [][]int {
	aSet, cSet := graph.CutSets(g, bSet, dSet, uNode)
	inD := make(map[int]bool, len(dSet))
	for _, x := range dSet {
		inD[x] = true
	}
	var notD []int
	for x := 0; x < g.N(); x++ {
		if !inD[x] {
			notD = append(notD, x)
		}
	}
	n := g.N()
	u := make([][]int, 0, 2*m)
	for i := 0; i < m; i++ {
		u = append(u, inCopy(notD, i, n),
			concat(inCopy(cSet, i, n), inCopy(dSet, i, n), inCopy(aSet, (i-1+m)%m, n)))
	}
	return u
}

// ringChain runs the ring argument on cr.G: the base runs, then the
// ring that build makes for their decision round, with the Lemma 3
// self-check on its middles. Devices that already fail a base run are
// defeated there, and no ring is built.
func ringChain(cr *ChainResult, pr ringProblem, builders map[string]sim.Builder, horizon int, build func(t int) (ring, error)) (*ChainResult, error) {
	var base [2]*sim.Run
	t := 0
	for bit := range base {
		p := sim.Protocol{Builders: builders, Inputs: map[string]sim.Input{}}
		for _, name := range cr.G.Names() {
			p.Inputs[name] = bits[bit]
		}
		sys, err := sim.NewSystem(cr.G, p)
		if err != nil {
			return nil, err
		}
		run, err := sim.Execute(sys, horizon)
		if err != nil {
			return nil, err
		}
		base[bit] = run
		name, all := fmt.Sprintf("B%d", bit), run.G.Names()
		cr.addLink(Link{Name: name, Splice: &Splice{Run: run, Correct: all}, Expect: pr.baseExpect[bit], Correct: all})
		cr.addViolations(name, pr.baseCheck[bit](run, all))
		for _, d := range run.Decisions {
			if (d.Value == pr.tDecision || pr.tDecision == "") && d.Round > t {
				t = d.Round
			}
		}
	}
	if cr.Contradicted() {
		return cr, nil // not even a solution when no node is faulty
	}
	if horizon <= t+1 {
		return nil, fmt.Errorf("core: horizon %d too small for decision round %d", horizon, t)
	}
	r, err := build(t)
	if err != nil {
		return nil, err
	}
	p := plan{
		cover:     r.cover,
		inputs:    make(map[string]sim.Input, r.cover.S.N()),
		rounds:    horizon,
		selfCheck: r.middles(base),
		scenarios: make([]scenario, 0, len(r.u)),
	}
	for s := 0; s < r.cover.S.N(); s++ {
		p.inputs[r.cover.S.Name(s)] = bits[0]
		if s/r.width < 2*r.k {
			p.inputs[r.cover.S.Name(s)] = bits[1]
		}
	}
	for i, u := range r.u {
		p.scenarios = append(p.scenarios, scenario{fmt.Sprintf("E%d", i), u, pr.linkExpect, pr.linkCheck})
	}
	return cr.run(p, builders)
}

// middles is the Lemma 3 self-check on the covering run: an S-node at
// middle position k (input 1) or 3k (input 0) is at least k edges from
// every opposite input, so its snapshots must equal its G-image's in
// that half's base run for k rounds, and whatever it decides before
// round k, the image decides too. A failure is a simulator bug, not a
// device failure, so it is an error.
func (r ring) middles(base [2]*sim.Run) func(runS *sim.Run) error {
	before := func(d sim.Decision) sim.Decision {
		if d.Value == "" || d.Round >= r.k {
			return sim.Decision{}
		}
		return d
	}
	return func(runS *sim.Run) error {
		for bit, pos := range [2]int{3 * r.k, r.k} {
			for s := pos * r.width; s < (pos+1)*r.width; s++ {
				sName, gName := r.cover.S.Name(s), r.cover.G.Name(r.cover.Phi[s])
				div, err := sim.PrefixEqual(runS, sName, base[bit], gName)
				if err != nil {
					return err
				}
				if div < r.k && div < runS.Rounds {
					return fmt.Errorf("core: Lemma 3 violated: ring node %s diverged from base-%d %s at round %d < k=%d",
						sName, bit, gName, div, r.k)
				}
				dS, _ := runS.DecisionOf(sName)
				dB, _ := base[bit].DecisionOf(gName)
				if before(dS) != before(dB) {
					return fmt.Errorf("core: Lemma 3 violated: ring node %s decided %q at round %d, base-%d %s %q at round %d",
						sName, dS.Value, dS.Round, bit, gName, dB.Value, dB.Round)
				}
			}
		}
		return nil
	}
}

// bits are the ring arguments' inputs 0 and 1.
var bits = [2]sim.Input{"0", "1"}

// WeakAgreementRing mechanizes Theorem 2 for the triangle: weak agreement
// devices A, B, C are run on the all-0 and all-1 correct triangles to
// find the decision horizon t'; they are then installed on the 4k-ring
// covering (k > t', one semicircle input 1, the other 0). Every adjacent
// pair of ring nodes splices into a correct one-fault behavior of the
// triangle, so agreement chains all 4k choices together — but Lemma 3
// (verified on the run: information moves one edge per round) forces the
// middle of the 0-arc to choose 0 and the middle of the 1-arc to choose
// 1. The engine locates the adjacent pair whose spliced behavior breaks
// agreement (or the base/choice condition that failed earlier).
func WeakAgreementRing(builders map[string]sim.Builder, device string, horizon int) (*ChainResult, error) {
	cr := &ChainResult{Theorem: "Theorem 2 (weak agreement)", Problem: "weak Byzantine agreement", Device: device, F: 1, G: graph.Triangle()}
	return ringChain(cr, weakRing("the two correct nodes must agree"), builders, horizon, triangleRing)
}

// WeakAgreementCutRing mechanizes the connectivity half of Theorem 2:
// weak agreement is impossible on a graph with a cut of size <= 2f. The
// horizon must cover the base decision round plus the ring transit.
func WeakAgreementCutRing(g *graph.Graph, f int, bSet, dSet []int, uNode, vNode int, builders map[string]sim.Builder, device string, horizon int) (*ChainResult, error) {
	if err := checkCutHalves(f, bSet, dSet); err != nil {
		return nil, err
	}
	cr := &ChainResult{Theorem: "Theorem 2 (weak agreement, 2f+1 connectivity)", Problem: "weak Byzantine agreement", Device: device, F: f, G: g}
	return ringChain(cr, weakRing("all correct nodes in this one-fault behavior must agree"),
		builders, horizon, cutRing(g, bSet, dSet, uNode, vNode))
}

// WeakAgreementNodesRing mechanizes the general node bound of Theorem 2:
// weak agreement is impossible on any graph with n <= 3f nodes.
func WeakAgreementNodesRing(g *graph.Graph, f int, aSet, bSet, cSet []int, builders map[string]sim.Builder, device string, horizon int) (*ChainResult, error) {
	block, err := graph.Partition(g, f, aSet, bSet, cSet)
	if err != nil {
		return nil, err
	}
	cr := &ChainResult{Theorem: "Theorem 2 (weak agreement, 3f+1 nodes, general case)", Problem: "weak Byzantine agreement", Device: device, F: f, G: g}
	return ringChain(cr, weakRing("all correct nodes in this one-block-fault behavior must agree"),
		builders, horizon, blockRing(g, block, aSet, bSet, cSet))
}

// FiringSquadRing mechanizes Theorem 4 for the triangle. The all-correct
// stimulated triangle fixes the fire time t; the devices then run on the
// 4k-ring covering (k > t) with the stimulus delivered to one
// semicircle. The middle of the stimulated arc fires at t, the middle of
// the quiet arc cannot have fired by then (its behavior tracks the
// no-stimulus run), and every adjacent pair is a correct one-fault
// behavior of the triangle in which firing must be simultaneous — so
// some pair's spliced behavior breaks the agreement condition.
func FiringSquadRing(builders map[string]sim.Builder, device string, horizon int) (*ChainResult, error) {
	cr := &ChainResult{Theorem: "Theorem 4 (Byzantine firing squad)", Problem: "Byzantine firing squad", Device: device, F: 1, G: graph.Triangle()}
	return ringChain(cr, firingSquadRing(
		"no stimulus and all correct: nobody fires",
		"stimulus everywhere and all correct: everyone fires, simultaneously",
		"the two correct nodes fire simultaneously or not at all"), builders, horizon, triangleRing)
}

// FiringSquadCutRing mechanizes the connectivity half of Theorem 4.
func FiringSquadCutRing(g *graph.Graph, f int, bSet, dSet []int, uNode, vNode int, builders map[string]sim.Builder, device string, horizon int) (*ChainResult, error) {
	if err := checkCutHalves(f, bSet, dSet); err != nil {
		return nil, err
	}
	cr := &ChainResult{Theorem: "Theorem 4 (firing squad, 2f+1 connectivity)", Problem: "Byzantine firing squad", Device: device, F: f, G: g}
	return ringChain(cr, firingSquadRing(baseFiring, baseFiring, "correct nodes fire simultaneously or not at all"),
		builders, horizon, cutRing(g, bSet, dSet, uNode, vNode))
}

// FiringSquadNodesRing mechanizes the general node bound of Theorem 4.
func FiringSquadNodesRing(g *graph.Graph, f int, aSet, bSet, cSet []int, builders map[string]sim.Builder, device string, horizon int) (*ChainResult, error) {
	block, err := graph.Partition(g, f, aSet, bSet, cSet)
	if err != nil {
		return nil, err
	}
	cr := &ChainResult{Theorem: "Theorem 4 (firing squad, 3f+1 nodes, general case)", Problem: "Byzantine firing squad", Device: device, F: f, G: g}
	return ringChain(cr, firingSquadRing(baseFiring, baseFiring, "correct nodes fire simultaneously or not at all"),
		builders, horizon, blockRing(g, block, aSet, bSet, cSet))
}

// baseFiring is the expectation of both base runs of the general firing
// squad rings.
const baseFiring = "base validity: fire simultaneously iff stimulated"
