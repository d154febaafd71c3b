package core

import (
	"fmt"
	"math"

	"flm/internal/graph"
	"flm/internal/sim"
)

// Theorem 5 runs Theorem 1's two-copy chains with the simple
// approximate agreement check on every link.
const simpleApprox = "simple approximate agreement"

var approxChecks = [3]check{simpleApproxCheck, simpleApproxCheck, simpleApproxCheck}

// SimpleApproxNodes mechanizes Theorem 5 (simple approximate agreement
// needs 3f+1 nodes). The construction is exactly the Byzantine one — the
// two-copy covering with inputs 0 and 1 — but the evaluated conditions
// are the approximate ones:
//
//	E1: blocks b,c correct, inputs all 0 -> validity forces every choice to 0
//	E2: c (copy 0) and a (copy 1) correct -> choices strictly closer than 1 apart
//	E3: blocks a,b correct, inputs all 1 -> validity forces every choice to 1
//
// If E1 and E3 hold, the choices in E2 are 0 and 1, no closer than the
// inputs — violating the strict-contraction agreement condition.
func SimpleApproxNodes(g *graph.Graph, f int, a, b, c []int, builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	tc, err := partitionCover(g, f, a, b, c)
	if err != nil {
		return nil, err
	}
	cr := &ChainResult{Theorem: "Theorem 5 (3f+1 nodes)", Problem: simpleApprox, Device: device, F: f, G: g}
	return cr.run(tc.plan(sim.RealInput(0), sim.RealInput(1), rounds, approxChecks, [3]string{
		"validity pins every choice to 0",
		"choices must be strictly closer than the inputs (1 apart)",
		"validity pins every choice to 1",
	}), builders)
}

// SimpleApproxTriangle runs the f=1 hexagon case of Theorem 5.
func SimpleApproxTriangle(builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	return SimpleApproxNodes(graph.Triangle(), 1, []int{0}, []int{1}, []int{2}, builders, device, rounds)
}

// SimpleApproxConnectivity mechanizes the connectivity half of Theorem 5
// (same structure as the Byzantine case, approximate conditions).
func SimpleApproxConnectivity(g *graph.Graph, f int, bSet, dSet []int, uNode, vNode int, builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	tc, err := cutCover(g, f, bSet, dSet, uNode, vNode)
	if err != nil {
		return nil, err
	}
	cr := &ChainResult{Theorem: "Theorem 5 (2f+1 connectivity)", Problem: simpleApprox, Device: device, F: f, G: g}
	return cr.run(tc.plan(sim.RealInput(0), sim.RealInput(1), rounds, approxChecks, [3]string{
		"validity pins every choice to 0",
		"choices strictly closer than the inputs (1 apart)",
		"validity pins every choice to 1",
	}), builders)
}

// EDGParams are the (ε,δ,γ)-agreement parameters; the theorem requires
// eps < delta (otherwise choosing one's input solves the problem).
type EDGParams struct {
	Eps, Delta, Gamma float64
}

// RingSize returns the paper's choice of k for Theorem 6 — the smallest k
// with delta > 2*gamma/(k-1) + eps and k+2 divisible by 3 — along with
// the ring size k+2.
func (p EDGParams) RingSize() (k, size int, err error) {
	if p.Eps <= 0 || p.Delta <= 0 || p.Gamma <= 0 {
		return 0, 0, fmt.Errorf("core: eps, delta, gamma must be positive")
	}
	if p.Eps >= p.Delta {
		return 0, 0, fmt.Errorf("core: eps=%v >= delta=%v makes (ε,δ,γ)-agreement trivially solvable", p.Eps, p.Delta)
	}
	k = int(math.Ceil(2*p.Gamma/(p.Delta-p.Eps))) + 2
	for (k+2)%3 != 0 || p.Delta <= 2*p.Gamma/float64(k-1)+p.Eps {
		k++
	}
	return k, k + 2, nil
}

// EpsilonDeltaGamma mechanizes Theorem 6: (ε,δ,γ)-agreement with
// eps < delta is impossible on the triangle (and hence on all inadequate
// graphs). The devices are installed on a ring of k+2 nodes covering the
// triangle, node i receiving input i*delta, and every adjacent pair
// (i, i+1) is spliced into a correct behavior E_i of the triangle with
// the third node faulty. Lemma 7's induction makes the conditions
// collectively unsatisfiable: validity in E_0 bounds node 1's choice by
// delta+gamma, each agreement link adds at most eps, and validity in E_k
// demands at least k*delta-gamma.
func EpsilonDeltaGamma(params EDGParams, builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	k, size, err := params.RingSize()
	if err != nil {
		return nil, err
	}
	cover := graph.RingCoverTriangle(size)
	p := params.plan(cover, rounds, func(s int) int { return s })
	for i := 0; i <= k; i++ {
		p.scenarios = append(p.scenarios, scenario{fmt.Sprintf("S%d", i), []int{i, i + 1},
			fmt.Sprintf("choices within ε of each other and within [%v-γ, %v+γ]", float64(i)*params.Delta, float64(i+1)*params.Delta),
			edgCheck(params)})
	}
	return params.chain("", device, 1, cover.G).run(p, builders)
}

// EpsilonDeltaGammaNodes mechanizes the general node bound of Theorem 6
// (n <= 3f): the devices run on the ring-of-blocks covering with k+2
// positions (...a_i b_i c_i a_{i+1}..., the c-a edges crossed), position
// j holding input j*delta, and every adjacent position pair splices into
// a correct behavior whose inputs are at most delta apart. Lemma 7's
// induction is unchanged.
func EpsilonDeltaGammaNodes(params EDGParams, g *graph.Graph, f int, aSet, bSet, cSet []int, builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	block, err := graph.Partition(g, f, aSet, bSet, cSet)
	if err != nil {
		return nil, err
	}
	k, size, err := params.RingSize()
	if err != nil {
		return nil, err
	}
	n := g.N()
	position := func(s int) int { return (s/n)*3 + block[s%n] }
	cover := blockCover(g, block, 2, 0, size/3) // c_i -> a_(i+1): consecutive positions
	members := make([][]int, size)
	for s := 0; s < cover.S.N(); s++ {
		members[position(s)] = append(members[position(s)], s)
	}
	p := params.plan(cover, rounds, position)
	for j := 0; j <= k; j++ {
		p.scenarios = append(p.scenarios, scenario{fmt.Sprintf("S%d", j), concat(members[j], members[j+1]),
			fmt.Sprintf("choices within ε and within γ of [%v, %v]", float64(j)*params.Delta, float64(j+1)*params.Delta),
			edgCheck(params)})
	}
	return params.chain(", 3f+1 nodes, general case", device, f, g).run(p, builders)
}

// EpsilonDeltaGammaConnectivity mechanizes the connectivity bound of
// Theorem 6: k+2 copies of a graph with a <=2f cut in a ring, copy i
// holding input i*delta; the within-copy scenarios (X_i, d faulty) have
// input spread 0 and the cross-copy scenarios (Y_i = c_i ∪ d_i ∪ a_{i-1},
// b faulty) have spread exactly delta. The chain is X0, then X_i and
// Y_i for i = 1..k.
func EpsilonDeltaGammaConnectivity(params EDGParams, g *graph.Graph, f int, bSet, dSet []int, uNode, vNode int, builders map[string]sim.Builder, device string, rounds int) (*ChainResult, error) {
	if err := checkCutHalves(f, bSet, dSet); err != nil {
		return nil, err
	}
	k, size, err := params.RingSize()
	if err != nil {
		return nil, err
	}
	cover, err := graph.CyclicCutCover(g, bSet, dSet, uNode, vNode, size) // one copy per ring position
	if err != nil {
		return nil, err
	}
	n := g.N()
	p := params.plan(cover, rounds, func(s int) int { return s / n })
	xy := cutScenarios(g, bSet, dSet, uNode, size)
	for i := 0; i <= k; i++ {
		p.scenarios = append(p.scenarios, scenario{fmt.Sprintf("X%d", i), xy[2*i], edgExpect, edgCheck(params)})
		if i >= 1 {
			p.scenarios = append(p.scenarios, scenario{fmt.Sprintf("Y%d", i), xy[2*i+1], edgExpect, edgCheck(params)})
		}
	}
	return params.chain(", 2f+1 connectivity", device, f, g).run(p, builders)
}

const edgExpect = "choices within ε and within γ of the inputs"

// plan is a Theorem 6 plan on cover with no scenarios yet: S-node s
// holds input position(s)*delta.
func (p EDGParams) plan(cover *graph.Cover, rounds int, position func(s int) int) plan {
	inputs := make(map[string]sim.Input, cover.S.N())
	for s := 0; s < cover.S.N(); s++ {
		inputs[cover.S.Name(s)] = sim.RealInput(float64(position(s)) * p.Delta)
	}
	return plan{cover: cover, inputs: inputs, rounds: rounds}
}

// chain is the header of a Theorem 6 chain; variant qualifies the
// theorem's name.
func (p EDGParams) chain(variant, device string, f int, g *graph.Graph) *ChainResult {
	return &ChainResult{
		Theorem: "Theorem 6 ((ε,δ,γ)-agreement" + variant + ")",
		Problem: fmt.Sprintf("(ε=%v, δ=%v, γ=%v)-agreement", p.Eps, p.Delta, p.Gamma),
		Device:  device, F: f, G: g,
	}
}

// Lemma7Bounds returns, for each node i in 1..k+1, the ceiling that
// Lemma 7's induction places on its choice (delta + gamma + (i-1)*eps)
// and, for node k, the floor validity demands (k*delta - gamma). It is
// exported so the experiment harness can print the induction table next
// to the measured choices.
func Lemma7Bounds(params EDGParams, k int) (ceilings []float64, floorAtK float64) {
	ceilings = make([]float64, k+2)
	for i := 1; i <= k+1; i++ {
		ceilings[i] = params.Delta + params.Gamma + float64(i-1)*params.Eps
	}
	return ceilings, float64(k)*params.Delta - params.Gamma
}
