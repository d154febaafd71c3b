package clocksync

import (
	"fmt"
	"math/big"
	"sort"

	"flm/internal/clockfn"
	"flm/internal/graph"
	"flm/internal/timedsim"
)

// This file mechanizes the general cases of Theorem 8 ("the general case
// of |G| <= 3f is a simple extension of this argument; the connectivity
// bound also follows easily"):
//
//   - Theorem8Nodes: any graph with n <= 3f nodes, partitioned into
//     blocks a, b, c of size <= f. The covering is the cyclic
//     ring-of-blocks (positions ...a_i b_i c_i a_{i+1}...), every node at
//     ring position j runs hardware clock q∘h⁻ʲ, and each adjacent block
//     pair (j, j+1), scaled by hʲ, is a correct behavior with clocks q
//     and p and the third block faulty.
//
//   - Theorem8Connectivity: any graph with a cut {b,d} of size <= 2f
//     separating u from v. The covering is the cyclic ring of copies
//     with the a-d edges crossed; all nodes of copy i run q∘h⁻ⁱ. The
//     within-copy scenarios X_i (copy i minus d, scaled by hⁱ: all
//     clocks q) chain each copy internally, and the cross-copy scenarios
//     Y_i = c_i ∪ d_i ∪ a_{i-1} (scaled by hⁱ⁻¹: a at q, c∪d at p) climb
//     the induction one copy per step.
//
// Both evaluate the agreement and envelope conditions in every scaled
// scenario at t'' = hᵏ(t') and rely on the Lemma 11 arithmetic for the
// guaranteed violation; sampled scenarios are re-executed as real runs
// of G with scripted faulty sets (the generalized Lemma 9 self-check).

// installScaledCover builds the timed system on an arbitrary cover with
// hardware clock q∘h^(-position[s]) at each S-node s. The inverse
// iterates come from the precomputed table (iters[i] = h⁻ⁱ), so the
// install is linear in the cover size rather than quadratic.
func installScaledCover(cover *graph.Cover, params Params, builders map[string]Builder, iters []clockfn.RatLinear, position []int) (*timedsim.System, error) {
	if err := cover.Verify(); err != nil {
		return nil, err
	}
	s, g := cover.S, cover.G
	if len(position) != s.N() {
		return nil, fmt.Errorf("clocksync: %d positions for %d S-nodes", len(position), s.N())
	}
	nodes := make([]timedsim.Node, s.N())
	for i := 0; i < s.N(); i++ {
		gName := g.Name(cover.Phi[i])
		b, ok := builders[gName]
		if !ok {
			return nil, fmt.Errorf("clocksync: no builder for G-node %q", gName)
		}
		toG := make(map[string]string, s.Degree(i))
		toS := make(map[string]string, s.Degree(i))
		for _, nb := range s.Neighbors(i) {
			toG[s.Name(nb)] = g.Name(cover.Phi[nb])
			toS[g.Name(cover.Phi[nb])] = s.Name(nb)
		}
		gNeighbors := make([]string, 0, len(toS))
		for gNb := range toS {
			gNeighbors = append(gNeighbors, gNb)
		}
		sort.Strings(gNeighbors)
		inner := b(gName, gNeighbors)
		inner.Init(gName, gNeighbors)
		nodes[i] = timedsim.Node{
			Device: timedsim.Renamed(inner, toG, toS),
			Clock:  params.Q.ComposeRat(iters[position[i]]),
		}
	}
	return &timedsim.System{G: s, Nodes: nodes, Delta: params.Delta}, nil
}

// scaledScenario is one correct-behavior claim: the S-nodes in U form,
// after scaling by h^scale, a correct behavior of G with the remaining
// G-nodes faulty.
type scaledScenario struct {
	name  string
	u     []int
	scale int
}

// checkScaledScenario is the generalized Lemma 9 self-check: re-execute
// the scenario as a real G-system (correct devices with their scaled
// clocks, every other node a scripted sender replaying the scaled border
// traffic) and require tick-for-tick agreement with the covering run.
func checkScaledScenario(cover *graph.Cover, params Params, builders map[string]Builder, h clockfn.RatLinear, iters []clockfn.RatLinear, position []int, runS *timedsim.Run, sc scaledScenario, tSecond clockfn.Q) error {
	s, g := cover.S, cover.G
	if err := cover.InducedIsomorphic(sc.u); err != nil {
		return err
	}
	scaleFn := iters[sc.scale]
	correct := make(map[int]int, len(sc.u)) // G-node -> S preimage
	for _, sn := range sc.u {
		correct[cover.Phi[sn]] = sn
	}
	nodes := make([]timedsim.Node, g.N())
	for gn := 0; gn < g.N(); gn++ {
		gName := g.Name(gn)
		if sn, ok := correct[gn]; ok {
			// The scaled clock law: (q h^-pos) ∘ h^scale; the exponent is
			// always <= 0 in the node and connectivity scenarios, so it
			// resolves through the iterate table.
			var law clockfn.RatLinear
			if e := sc.scale - position[sn]; e <= 0 && -e < len(iters) {
				law = iters[-e]
			} else {
				law = h.IterateRat(e)
			}
			dev := builders[gName](gName, gNeighborNames(g, gn))
			dev.Init(gName, gNeighborNames(g, gn))
			nodes[gn] = timedsim.Node{
				Device: dev,
				Clock:  params.Q.ComposeRat(law),
			}
			continue
		}
		// Faulty node: script the scaled border sends toward each correct
		// neighbor. Per-edge send lists are time-ordered and scaling
		// preserves order, so fold-merging them reproduces the stable
		// sort of their concatenation.
		var script []timedsim.ScriptedSend
		for _, gv := range g.Neighbors(gn) {
			sn, ok := correct[gv]
			if !ok {
				continue
			}
			pre := cover.EdgePreimage(sn, gn)
			recs := runS.Sends[graph.Edge{From: s.Name(pre), To: s.Name(sn)}]
			edge := make([]timedsim.ScriptedSend, 0, len(recs))
			for _, rec := range recs {
				edge = append(edge, timedsim.ScriptedSend{
					At: scaleFn.At(rec.At), To: g.Name(gv), Payload: rec.Payload,
				})
			}
			script = mergeScript(script, edge)
		}
		nodes[gn] = timedsim.Node{Script: script, Clock: params.Q}
	}
	until := scaleFn.At(tSecond)
	runG, err := timedsim.Execute(&timedsim.System{G: g, Nodes: nodes, Delta: params.Delta}, until)
	if err != nil {
		return err
	}
	for _, sn := range sc.u {
		gName := g.Name(cover.Phi[sn])
		ringTicks := runS.Ticks[sn]
		gTicks, err := runG.TicksOf(gName)
		if err != nil {
			return err
		}
		if len(ringTicks) != len(gTicks) {
			return fmt.Errorf("%s: node %s: %d covering ticks vs %d spliced ticks",
				sc.name, gName, len(ringTicks), len(gTicks))
		}
		for j := range ringTicks {
			rt, gt := ringTicks[j], gTicks[j]
			if scaled := scaleFn.At(rt.Time); scaled.Cmp(gt.Time) != 0 {
				return fmt.Errorf("%s: node %s tick %d: scaled time %s != %s",
					sc.name, gName, j, scaled, gt.Time)
			}
			if rt.Snapshot != gt.Snapshot {
				return fmt.Errorf("%s: node %s tick %d: snapshots differ", sc.name, gName, j)
			}
		}
	}
	return nil
}

func gNeighborNames(g *graph.Graph, u int) []string {
	var out []string
	for _, v := range g.Neighbors(u) {
		out = append(out, g.Name(v))
	}
	return sortedStrings(out)
}

// evaluateScaledScenarios applies the agreement and envelope conditions
// to every scenario at its scaled time and collects violations.
func evaluateScaledScenarios(params Params, iters []clockfn.RatLinear, run *timedsim.Run, scenarios []scaledScenario, tSecond clockfn.Q) []Violation {
	const tol = 1e-9
	pf, qf := params.P.Float(), params.Q.Float()
	var violations []Violation
	for _, sc := range scenarios {
		tauF := iters[sc.scale].At(tSecond).Float64()
		bound := params.L.At(qf.At(tauF)) - params.L.At(pf.At(tauF)) - params.Alpha
		loEnv, hiEnv := params.L.At(pf.At(tauF)), params.U.At(qf.At(tauF))
		for ai, a := range sc.u {
			ca := run.FinalLogical[a]
			if ca < loEnv-tol || ca > hiEnv+tol {
				violations = append(violations, Violation{
					Scenario: sc.name, Condition: "envelope",
					Detail: fmt.Sprintf("C(%s) = %.6f outside [%.6f, %.6f] at scaled time %.6f",
						run.G.Name(a), ca, loEnv, hiEnv, tauF),
				})
			}
			for _, b := range sc.u[ai+1:] {
				gap := ca - run.FinalLogical[b]
				if gap < 0 {
					gap = -gap
				}
				if gap > bound+tol {
					violations = append(violations, Violation{
						Scenario: sc.name, Condition: "agreement",
						Detail: fmt.Sprintf("|C(%s) - C(%s)| = %.6f > %.6f at scaled time %.6f",
							run.G.Name(a), run.G.Name(b), gap, bound, tauF),
					})
				}
			}
		}
	}
	return violations
}

// Theorem8Nodes mechanizes the general node bound of Theorem 8.
func Theorem8Nodes(params Params, g *graph.Graph, aSet, bSet, cSet []int, f int, builders map[string]Builder) (*Result, error) {
	block, err := graph.Partition(g, f, aSet, bSet, cSet)
	if err != nil {
		return nil, err
	}
	k, err := params.ChooseK()
	if err != nil {
		return nil, err
	}
	positionsTotal := k + 2 // ring positions, divisible by 3
	copies := positionsTotal / 3
	// Crossing c -> a makes the ring positions consecutive:
	// ...a_i b_i c_i a_(i+1)..., so adjacent positions are adjacent
	// block images.
	cover := graph.CyclicCover(g, func(u, v int) bool {
		return block[u] == 2 && block[v] == 0
	}, copies)
	n := g.N()
	position := make([]int, cover.S.N())
	for i := range position {
		position[i] = (i/n)*3 + block[i%n]
	}
	h := params.H()
	iters := clockfn.Iterates(h, -1, positionsTotal-1)
	sys, err := installScaledCover(cover, params, builders, iters, position)
	if err != nil {
		return nil, err
	}
	tSecond := h.IterateRat(k).At(clockfn.FromRat(params.TPrime))
	if err := guardTicks(params, tSecond, k); err != nil {
		return nil, err
	}
	run, err := timedsim.Execute(sys, tSecond)
	if err != nil {
		return nil, err
	}
	// Scenario pairs (position j, j+1) for j = 0..k, scaled by h^j.
	members := make([][]int, positionsTotal)
	for i, p := range position {
		members[p] = append(members[p], i)
	}
	var scenarios []scaledScenario
	for j := 0; j <= k; j++ {
		scenarios = append(scenarios, scaledScenario{
			name:  fmt.Sprintf("S%d", j),
			u:     append(append([]int(nil), members[j]...), members[j+1]...),
			scale: j,
		})
	}
	res := &Result{
		Params:  params,
		K:       k,
		TSecond: tSecond.Rat(new(big.Rat)),
		Logical: append([]float64(nil), run.FinalLogical...),
		Run:     run,
	}
	for _, idx := range sampleScenarios(k) {
		if err := checkScaledScenario(cover, params, builders, h, iters, position, run, scenarios[idx], tSecond); err != nil {
			return nil, fmt.Errorf("clocksync: Lemma 9 self-check failed: %w", err)
		}
	}
	res.Violations = evaluateScaledScenarios(params, iters, run, scenarios, tSecond)
	if !res.Contradicted() {
		return res, fmt.Errorf("clocksync: no condition violated in the general node case — impossible:\n%s", res)
	}
	return res, nil
}

// Theorem8Connectivity mechanizes the connectivity bound of Theorem 8.
func Theorem8Connectivity(params Params, g *graph.Graph, bSet, dSet []int, uNode, vNode, f int, builders map[string]Builder) (*Result, error) {
	if len(bSet) > f || len(dSet) > f {
		return nil, fmt.Errorf("clocksync: cut halves must have at most f=%d nodes", f)
	}
	k, err := params.ChooseK()
	if err != nil {
		return nil, err
	}
	copies := k + 2
	cover, err := graph.CyclicCutCover(g, bSet, dSet, uNode, vNode, copies)
	if err != nil {
		return nil, err
	}
	n := g.N()
	position := make([]int, cover.S.N())
	for i := range position {
		position[i] = i / n // all nodes of copy i share the clock q∘h⁻ⁱ
	}
	h := params.H()
	iters := clockfn.Iterates(h, -1, copies-1)
	sys, err := installScaledCover(cover, params, builders, iters, position)
	if err != nil {
		return nil, err
	}
	tSecond := h.IterateRat(k).At(clockfn.FromRat(params.TPrime))
	if err := guardTicks(params, tSecond, k); err != nil {
		return nil, err
	}
	run, err := timedsim.Execute(sys, tSecond)
	if err != nil {
		return nil, err
	}
	inD := make(map[int]bool, len(dSet))
	for _, x := range dSet {
		inD[x] = true
	}
	removed := append(append([]int(nil), bSet...), dSet...)
	aSet := g.ComponentWithout(removed, uNode)
	inAorCut := make(map[int]bool, g.N())
	for _, x := range aSet {
		inAorCut[x] = true
	}
	for _, x := range removed {
		inAorCut[x] = true
	}
	var cSet []int
	for x := 0; x < g.N(); x++ {
		if !inAorCut[x] {
			cSet = append(cSet, x)
		}
	}
	var scenarios []scaledScenario
	for i := 0; i <= k; i++ {
		// X_i: copy i without d, scaled by h^i (all clocks q).
		var x []int
		for node := 0; node < n; node++ {
			if !inD[node] {
				x = append(x, i*n+node)
			}
		}
		scenarios = append(scenarios, scaledScenario{name: fmt.Sprintf("X%d", i), u: x, scale: i})
		if i >= 1 {
			// Y_i: c_i ∪ d_i ∪ a_{i-1}, scaled by h^(i-1) (a at q, c∪d at p).
			var y []int
			for _, node := range cSet {
				y = append(y, i*n+node)
			}
			for _, node := range dSet {
				y = append(y, i*n+node)
			}
			for _, node := range aSet {
				y = append(y, (i-1)*n+node)
			}
			scenarios = append(scenarios, scaledScenario{name: fmt.Sprintf("Y%d", i), u: y, scale: i - 1})
		}
	}
	res := &Result{
		Params:  params,
		K:       k,
		TSecond: tSecond.Rat(new(big.Rat)),
		Logical: append([]float64(nil), run.FinalLogical...),
		Run:     run,
	}
	for _, idx := range sampleScenarios(len(scenarios) - 2) {
		if err := checkScaledScenario(cover, params, builders, h, iters, position, run, scenarios[idx], tSecond); err != nil {
			return nil, fmt.Errorf("clocksync: Lemma 9 self-check failed: %w", err)
		}
	}
	res.Violations = evaluateScaledScenarios(params, iters, run, scenarios, tSecond)
	if !res.Contradicted() {
		return res, fmt.Errorf("clocksync: no condition violated in the connectivity case — impossible:\n%s", res)
	}
	return res, nil
}

// ticksEstimate is about the number of ticks the fastest node takes to
// reach real time tSecond: q(tSecond)/Δ.
func ticksEstimate(params Params, tSecond clockfn.Q) float64 {
	return params.Q.At(tSecond).Quo(clockfn.FromRat(params.Delta)).Float64()
}

// guardTicks rejects parameter choices whose simulation would be huge.
func guardTicks(params Params, tSecond clockfn.Q, k int) error {
	if est := ticksEstimate(params, tSecond); est > 5e5 {
		return fmt.Errorf("clocksync: parameters need ~%.0f ticks (k=%d); increase alpha or tighten the envelopes", est, k)
	}
	return nil
}
