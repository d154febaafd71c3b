package core

import (
	"fmt"

	"flm/internal/graph"
	"flm/internal/sim"
)

// Theorems 1 and 5 splice the same three scenarios out of the same
// two-copy covers; only the inputs, the checks and the expectations
// differ.

// twoCopy is a two-copy cover of G with its scenarios E1, E2, E3.
type twoCopy struct {
	cover *graph.Cover
	u     [3][]int
}

// plan gives copy 0 input zero and copy 1 input one, and splices E1,
// E2, E3 in order.
func (tc twoCopy) plan(zero, one sim.Input, rounds int, checks [3]check, expect [3]string) plan {
	p := plan{cover: tc.cover, inputs: copyInputs(tc.cover.S, zero, one), rounds: rounds}
	for i, u := range tc.u {
		p.scenarios = append(p.scenarios, scenario{fmt.Sprintf("E%d", i+1), u, expect[i], checks[i]})
	}
	return p
}

// partitionCover checks the partition a, b, c of g (graph.Partition)
// and builds its two-copy cover with the a-c edges crossed, the hexagon
// of blocks of Section 3.1:
//
//	E1 = b∪c of copy 0            (a faulty)
//	E2 = c of copy 0, a of copy 1 (b faulty)
//	E3 = a∪b of copy 1            (c faulty)
func partitionCover(g *graph.Graph, f int, a, b, c []int) (twoCopy, error) {
	block, err := graph.Partition(g, f, a, b, c)
	if err != nil {
		return twoCopy{}, err
	}
	n := g.N()
	return twoCopy{blockCover(g, block, 0, 2, 2), [3][]int{
		concat(b, c),
		concat(c, inCopy(a, 1, n)),
		concat(inCopy(a, 1, n), inCopy(b, 1, n)),
	}}, nil
}

// cutCover checks the cut halves bSet and dSet, each of at most f
// nodes, that separate uNode from vNode, and builds the two-copy cover
// with the a-d edges crossed (Section 3.2), a being uNode's side of the
// cut and c the rest:
//
//	E1 = a∪b∪c of copy 0            (d faulty)
//	E2 = c∪d of copy 0, a of copy 1 (b faulty)
//	E3 = a∪b∪c of copy 1            (d faulty)
func cutCover(g *graph.Graph, f int, bSet, dSet []int, uNode, vNode int) (twoCopy, error) {
	if err := checkCutHalves(f, bSet, dSet); err != nil {
		return twoCopy{}, err
	}
	cover, err := graph.CutCover(g, bSet, dSet, uNode, vNode)
	if err != nil {
		return twoCopy{}, err
	}
	aSet, cSet := graph.CutSets(g, bSet, dSet, uNode)
	n := g.N()
	return twoCopy{cover, [3][]int{
		concat(aSet, bSet, cSet),
		concat(cSet, dSet, inCopy(aSet, 1, n)),
		concat(inCopy(aSet, 1, n), inCopy(bSet, 1, n), inCopy(cSet, 1, n)),
	}}, nil
}

// checkCutHalves rejects a cut half of more than f nodes.
func checkCutHalves(f int, bSet, dSet []int) error {
	if len(bSet) > f || len(dSet) > f {
		return fmt.Errorf("core: cut halves must have at most f=%d nodes", f)
	}
	return nil
}

// baChecks are Byzantine agreement on E1–E3: validity forces 0 in E1
// and 1 in E3; E2 has mixed inputs.
var baChecks = [3]check{baCheck("0"), baCheck(""), baCheck("1")}

// ByzantineNodes mechanizes the 3f+1 node bound of Theorem 1. The graph g
// must have n <= 3f nodes, partitioned into non-empty blocks a, b, c of
// size at most f. The devices (builders, keyed by node name) are
// installed on the two-copy covering with the a-c edges crossed, copy 0
// gets input 0 and copy 1 input 1, and the three scenarios of the paper
// are spliced into behaviors E1, E2, E3 of g:
//
//	E1: blocks b,c correct with input 0, a faulty  -> validity forces 0
//	E2: block c (copy 0) and a (copy 1) correct, b faulty -> agreement
//	E3: blocks a,b correct with input 1, c faulty  -> validity forces 1
//
// E2 shares c's behavior with E1 and a's with E3, so if no condition
// failed the a-nodes would have decided both 0 and 1. The engine reports
// every condition that actually fails; at least one must.
func ByzantineNodes(g *graph.Graph, f int, a, b, c []int, builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	tc, err := partitionCover(g, f, a, b, c)
	if err != nil {
		return nil, err
	}
	cr := &ChainResult{Theorem: "Theorem 1 (3f+1 nodes)", Problem: "Byzantine agreement", Device: device, F: f, G: g}
	return cr.run(tc.plan(sim.BoolInput(false), sim.BoolInput(true), rounds, baChecks, [3]string{
		"validity forces all correct nodes to choose 0",
		"agreement chains c's choice (0) to a's",
		"validity forces all correct nodes to choose 1",
	}), builders)
}

// ByzantineTriangle runs the f=1 triangle case of the node bound — the
// paper's hexagon argument — against devices for nodes a, b, c.
func ByzantineTriangle(builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	return ByzantineNodes(graph.Triangle(), 1, []int{0}, []int{1}, []int{2}, builders, device, rounds)
}

// ByzantineConnectivity mechanizes the 2f+1 connectivity bound of
// Theorem 1. The node sets bSet and dSet (each of size at most f) must
// disconnect uNode from vNode. With a = the component of uNode after the
// cut is removed and c = the rest, the devices are installed on the
// two-copy covering with the a-d edges crossed (copy 0 input 0, copy 1
// input 1) and the paper's three scenarios are spliced:
//
//	E1 = S1: a,b,c correct with input 0, d faulty -> validity forces 0
//	E2 = S2: c,d (copy 0) and a (copy 1) correct, b faulty -> agreement
//	E3 = S3: a,b,c (copy 1) correct with input 1, d faulty -> validity forces 1
func ByzantineConnectivity(g *graph.Graph, f int, bSet, dSet []int, uNode, vNode int, builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	tc, err := cutCover(g, f, bSet, dSet, uNode, vNode)
	if err != nil {
		return nil, err
	}
	cr := &ChainResult{Theorem: "Theorem 1 (2f+1 connectivity)", Problem: "Byzantine agreement", Device: device, F: f, G: g}
	return cr.run(tc.plan(sim.BoolInput(false), sim.BoolInput(true), rounds, baChecks, [3]string{
		"validity forces all correct nodes to choose 0",
		"agreement chains c's choice (0) through d to a's",
		"validity forces all correct nodes to choose 1",
	}), builders)
}

// ByzantineDiamond runs the f=1 connectivity case on the paper's
// four-node diamond graph (connectivity 2, cut {b,d}).
func ByzantineDiamond(builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	g := graph.Diamond()
	return ByzantineConnectivity(g, 1, []int{1}, []int{3}, 0, 2, builders, device, rounds)
}
