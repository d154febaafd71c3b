package clocksync

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"flm/internal/clockfn"
	"flm/internal/graph"
	"flm/internal/timedsim"
)

// Params describes a "nontrivial synchronization" claim (Section 7):
// correct hardware clocks run at p or q (increasing, p(t) <= q(t)); the
// logical clocks must stay within the [l, u] envelope of real time and
// within l(q(t)) - l(p(t)) - Alpha of each other from time TPrime on.
// Delta is the device tick spacing in hardware-clock units.
type Params struct {
	P, Q   clockfn.RatLinear // the slow and fast clock laws (exact)
	L, U   clockfn.Fn        // lower and upper envelopes
	Alpha  float64           // the claimed improvement over trivial sync
	TPrime *big.Rat          // time from which agreement must hold
	Delta  *big.Rat          // hardware tick spacing
}

// Violation is one broken synchronization condition in a scaled scenario.
type Violation struct {
	Scenario  string // "S0", "S1", ...
	Condition string // "agreement" or "envelope"
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s violated: %s", v.Scenario, v.Condition, v.Detail)
}

// Result is the outcome of the mechanized Theorem 8 argument.
type Result struct {
	Params     Params
	K          int       // the induction length (the ring has K+2 positions)
	TSecond    *big.Rat  // t'' = h^K(t'), the evaluation time in ring frame
	Logical    []float64 // C at t'' for every node of the covering ring
	Floors     []float64 // Lemma 11 floors l(q h^{-(j)}(t'')) + (j-1)α forced on ring position j
	Violations []Violation
	Run        *timedsim.Run
}

// Contradicted reports whether a condition was violated (the theorem
// guarantees it).
func (r *Result) Contradicted() bool { return len(r.Violations) > 0 }

// String renders the argument: the ring's K+2 positions and its
// S-nodes, one logical clock per S-node (named from the covering run's
// graph, or numbered when there is no run), then the violations.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Theorem 8 — clock synchronization, ring of %d positions and %d nodes, k=%d\n",
		r.K+2, len(r.Logical), r.K)
	for i, c := range r.Logical {
		if r.Run != nil && i < r.Run.G.N() {
			fmt.Fprintf(&b, "  node %s: C(t'') = %.6f\n", r.Run.G.Name(i), c)
		} else {
			fmt.Fprintf(&b, "  node %d: C(t'') = %.6f\n", i, c)
		}
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  ** %s\n", v)
	}
	return b.String()
}

// ChooseK returns the paper's induction length: the smallest k >= 2 with
// k+2 divisible by 3 and l(p(t')) + k*alpha > u(q(t')).
func (p Params) ChooseK() (int, error) {
	tPrime, _ := p.TPrime.Float64()
	pf, qf := p.P.Float(), p.Q.Float()
	if p.Alpha <= 0 {
		return 0, fmt.Errorf("clocksync: alpha must be positive")
	}
	if pf.At(tPrime) > qf.At(tPrime) {
		return 0, fmt.Errorf("clocksync: p(t') > q(t') — p must be the slow clock")
	}
	target := p.U.At(qf.At(tPrime)) - p.L.At(pf.At(tPrime))
	if target < 0 {
		return 0, fmt.Errorf("clocksync: envelopes cross at t' (u(q) < l(p))")
	}
	k := 2
	for float64(k)*p.Alpha <= target || (k+2)%3 != 0 {
		k++
		if k > 1<<20 {
			return 0, fmt.Errorf("clocksync: no reasonable k satisfies l(p(t'))+kα > u(q(t'))")
		}
	}
	return k, nil
}

// H returns h = p⁻¹ ∘ q, exactly.
func (p Params) H() clockfn.RatLinear { return p.P.InverseRat().ComposeRat(p.Q) }

// Theorem8 mechanizes the clock synchronization impossibility on the
// triangle. Devices (keyed by triangle node name a/b/c) are installed on
// the (k+2)-ring covering with hardware clocks D_i = q∘h⁻ⁱ; the system
// runs to real time t” = hᵏ(t'); and for every scaled scenario Sᵢhⁱ
// (adjacent pair i, i+1 viewed with clocks q and p) the agreement and
// envelope conditions are evaluated at the scaled time h⁻ⁱ(t”) >= t'.
// Lemma 11's arithmetic makes them jointly unsatisfiable, so at least one
// recorded violation is guaranteed for any devices whatsoever.
func Theorem8(params Params, builders map[string]Builder) (*Result, error) {
	p, err := trianglePlan(params)
	if err != nil {
		return nil, err
	}
	return p.run(builders)
}

// Theorem8Nodes mechanizes the general node bound of Theorem 8: g has
// n <= 3f nodes, partitioned into blocks a, b, c of at most f nodes each.
func Theorem8Nodes(params Params, g *graph.Graph, aSet, bSet, cSet []int, f int, builders map[string]Builder) (*Result, error) {
	p, err := blockRing(params, g, f, aSet, bSet, cSet)
	if err != nil {
		return nil, err
	}
	return p.run(builders)
}

// Theorem8Connectivity mechanizes the connectivity bound of Theorem 8:
// the cut bSet ∪ dSet, each half of at most f nodes, separates uNode
// from vNode.
func Theorem8Connectivity(params Params, g *graph.Graph, bSet, dSet []int, uNode, vNode, f int, builders map[string]Builder) (*Result, error) {
	p, err := cutRing(params, g, f, bSet, dSet, uNode, vNode)
	if err != nil {
		return nil, err
	}
	return p.run(builders)
}

// The general cases of Theorem 8 ("the general case of |G| <= 3f is a
// simple extension of this argument; the connectivity bound also follows
// easily") differ from the triangle only in their covering and scenarios:
//
//   - Node bound: any graph with n <= 3f nodes, partitioned into blocks
//     a, b, c of size <= f. The covering is the cyclic ring-of-blocks
//     (positions ...a_i b_i c_i a_{i+1}...), every node at ring position
//     j runs hardware clock q∘h⁻ʲ, and each adjacent block pair (j, j+1),
//     scaled by hʲ, is a correct behavior with clocks q and p and the
//     third block faulty. The triangle is the case of singleton blocks.
//
//   - Connectivity bound: any graph with a cut {b,d} of size <= 2f
//     separating u from v. The covering is the cyclic ring of copies
//     with the a-d edges crossed; all nodes of copy i run q∘h⁻ⁱ. The
//     within-copy scenarios X_i (copy i minus d, scaled by hⁱ: all
//     clocks q) chain each copy internally, and the cross-copy scenarios
//     Y_i = c_i ∪ d_i ∪ a_{i-1} (scaled by hⁱ⁻¹: a at q, c∪d at p) climb
//     the induction one copy per step.
//
// Each is a plan, run by one runner: it evaluates the agreement and
// envelope conditions in every scaled scenario at t'' = hᵏ(t') and relies
// on the Lemma 11 arithmetic for the guaranteed violation; the first,
// middle and last scenarios are re-executed as real runs of G with
// scripted faulty sets (the Lemma 9 self-check).

// plan is one Theorem 8 argument as data, independent of the devices:
// the covering, each S-node's ring position j (its hardware clock is
// q∘h⁻ʲ), the scaled scenarios in order, the iterate table and t”.
// newPlan validates it before anything executes. A plan is read-only
// once built, so EvalGrid shares one across every device cell of a case;
// its rationals are immutable clockfn.Q values.
type plan struct {
	params    Params
	k         int
	cover     *graph.Cover
	position  []int // position[s] = ring position of S-node s
	scenarios []scaledScenario
	iters     []clockfn.RatLinear // iters[i] = h⁻ⁱ, i = 0..k+1
	tSecond   clockfn.Q           // t'' = hᵏ(t')
}

// scaledScenario is one correct-behavior claim: the S-nodes in u form,
// after scaling by h^scale, a correct behavior of G with the remaining
// G-nodes faulty.
type scaledScenario struct {
	name  string
	u     []int
	scale int
}

// newPlan completes a plan, which it accepts only if:
//   - the cover verifies;
//   - every scenario is an induced copy of its image with at most f
//     faulty G-nodes, and each member's position is the scenario's scale
//     or one more, so that once scaled the member runs at q or p;
//   - the fastest node's run stays small. It takes about q(t”)/Δ ticks,
//     exponential in k for rate-scaled clocks; a larger alpha (or
//     tighter envelopes) shrinks k.
func newPlan(params Params, k, f int, cover *graph.Cover, position []int, scenarios []scaledScenario) (*plan, error) {
	if err := cover.Verify(); err != nil {
		return nil, err
	}
	for _, sc := range scenarios {
		if err := cover.InducedIsomorphic(sc.u); err != nil {
			return nil, fmt.Errorf("clocksync: %s: %w", sc.name, err)
		}
		if faulty := cover.G.N() - len(sc.u); faulty > f {
			return nil, fmt.Errorf("clocksync: %s has %d faulty nodes, more than f=%d", sc.name, faulty, f)
		}
		for _, s := range sc.u {
			if e := position[s] - sc.scale; e != 0 && e != 1 {
				return nil, fmt.Errorf("clocksync: %s: %s at position %d, scale %d", sc.name, cover.S.Name(s), position[s], sc.scale)
			}
		}
	}
	h := params.H()
	p := &plan{
		params: params, k: k, cover: cover, position: position, scenarios: scenarios,
		iters:   clockfn.Iterates(h, -1, k+1),
		tSecond: h.IterateRat(k).At(clockfn.FromRat(params.TPrime)),
	}
	if est := params.Q.At(p.tSecond).Quo(clockfn.FromRat(params.Delta)).Float64(); est > 5e5 {
		return nil, fmt.Errorf("clocksync: parameters need ~%.0f ticks (k=%d, t''=%s); increase alpha or tighten the envelopes",
			est, k, p.tSecond)
	}
	return p, nil
}

// trianglePlan is the paper's own Theorem 8 argument: the ring of
// blocks on the triangle, one node per block and f = 1.
func trianglePlan(params Params) (*plan, error) {
	return blockRing(params, graph.Triangle(), 1, []int{0}, []int{1}, []int{2})
}

// blockRing plans the node bound: k+2 ring positions over (k+2)/3
// copies of g, the c-a edges crossed so that positions run
// ...a_i b_i c_i a_(i+1)..., and S_j = positions j and j+1 at scale j.
func blockRing(params Params, g *graph.Graph, f int, aSet, bSet, cSet []int) (*plan, error) {
	block, err := graph.Partition(g, f, aSet, bSet, cSet)
	if err != nil {
		return nil, err
	}
	k, err := params.ChooseK()
	if err != nil {
		return nil, err
	}
	size, n := k+2, g.N()
	cover := graph.CyclicCover(g, func(u, v int) bool {
		return block[u] == 2 && block[v] == 0
	}, size/3)
	position := make([]int, cover.S.N())
	members := make([][]int, size)
	for s := range position {
		position[s] = (s/n)*3 + block[s%n]
		members[position[s]] = append(members[position[s]], s)
	}
	scenarios := make([]scaledScenario, k+1)
	for j := range scenarios {
		u := append(append([]int(nil), members[j]...), members[j+1]...)
		scenarios[j] = scaledScenario{name: fmt.Sprintf("S%d", j), u: u, scale: j}
	}
	return newPlan(params, k, f, cover, position, scenarios)
}

// cutRing plans the connectivity bound: k+2 copies of g in a ring, the
// a-d edges crossed, copy i at position i; the scenarios are X0, then
// X_i and Y_i for i = 1..k. X_i has the d-nodes faulty and Y_i the
// b-nodes, so newPlan rejects a cut half of more than f nodes.
func cutRing(params Params, g *graph.Graph, f int, bSet, dSet []int, uNode, vNode int) (*plan, error) {
	k, err := params.ChooseK()
	if err != nil {
		return nil, err
	}
	cover, err := graph.CyclicCutCover(g, bSet, dSet, uNode, vNode, k+2)
	if err != nil {
		return nil, err
	}
	n := g.N()
	position := make([]int, cover.S.N())
	for s := range position {
		position[s] = s / n
	}
	aSet, cSet := graph.CutSets(g, bSet, dSet, uNode)
	inD := make(map[int]bool, len(dSet))
	for _, x := range dSet {
		inD[x] = true
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
	return newPlan(params, k, f, cover, position, scenarios)
}

// run is the one move every Theorem 8 proof makes: install the devices
// and execute S to t”, re-execute the first, middle and last scenarios
// as real runs of G (the Lemma 9 self-check; all of them would be
// quadratic in k), evaluate every scenario, and fill in the Lemma 11
// floors. A proof with no violation contradicts Lemma 11: an engine
// error. Safe to call concurrently on one plan.
func (p *plan) run(builders map[string]Builder) (*Result, error) {
	runS, err := p.execute(builders)
	if err != nil {
		return nil, err
	}
	for _, sc := range p.selfChecked() {
		if err := p.lemma9(builders, runS, sc); err != nil {
			return nil, fmt.Errorf("clocksync: Lemma 9 self-check failed for %s: %w", sc.name, err)
		}
	}
	res := &Result{
		Params:     p.params,
		K:          p.k,
		TSecond:    p.tSecond.Rat(new(big.Rat)),
		Logical:    append([]float64(nil), runS.FinalLogical...),
		Floors:     p.floors(),
		Violations: p.evaluate(runS),
		Run:        runS,
	}
	if !res.Contradicted() {
		return res, fmt.Errorf("clocksync: no condition violated — impossible by Lemma 11:\n%s", res)
	}
	return res, nil
}

// selfChecked are the scenarios the Lemma 9 self-check re-executes: the
// first, the middle and the last.
func (p *plan) selfChecked() []scaledScenario {
	n := len(p.scenarios)
	return []scaledScenario{p.scenarios[0], p.scenarios[(n-1)/2], p.scenarios[n-1]}
}

// execute installs the devices on the cover and runs S to t”: S-node s
// runs the device of its image, renamed, with hardware clock
// q∘h^-position[s].
func (p *plan) execute(builders map[string]Builder) (*timedsim.Run, error) {
	s, g := p.cover.S, p.cover.G
	nodes := make([]timedsim.Node, s.N())
	for i := range nodes {
		gName := g.Name(p.cover.Phi[i])
		b, ok := builders[gName]
		if !ok {
			return nil, fmt.Errorf("clocksync: no builder for G-node %q", gName)
		}
		toG := make(map[string]string, s.Degree(i))
		toS := make(map[string]string, s.Degree(i))
		for _, nb := range s.Neighbors(i) {
			toG[s.Name(nb)] = g.Name(p.cover.Phi[nb])
			toS[g.Name(p.cover.Phi[nb])] = s.Name(nb)
		}
		inner := newDevice(b, g, p.cover.Phi[i])
		nodes[i] = timedsim.Node{
			Device: timedsim.Renamed(inner, toG, toS),
			Clock:  p.params.Q.ComposeRat(p.iters[p.position[i]]),
		}
	}
	return timedsim.Execute(&timedsim.System{G: s, Nodes: nodes, Delta: p.params.Delta}, p.tSecond)
}

// newDevice builds and initializes b's device for node u of g.
func newDevice(b Builder, g *graph.Graph, u int) timedsim.Device {
	name := g.Name(u)
	neighbors := make([]string, 0, g.Degree(u))
	for _, v := range g.Neighbors(u) {
		neighbors = append(neighbors, g.Name(v))
	}
	sort.Strings(neighbors)
	dev := b(name, neighbors)
	dev.Init(name, neighbors)
	return dev
}

// lemma9 re-executes one scenario, scaled by h^scale, as a real run of
// G: each member runs its image's device with hardware clock
// q∘h^-(position-scale), that is q or p, and every other G-node replays,
// as a scripted faulty sender, the scaled traffic its preimages sent
// into the scenario on S. Each member's ticks must match S's exactly: the
// scaled time, the hardware reading and the snapshot. This checks the
// Scaling, Locality and Fault axioms on the actual run.
func (p *plan) lemma9(builders map[string]Builder, runS *timedsim.Run, sc scaledScenario) error {
	s, g := p.cover.S, p.cover.G
	scale := p.iters[sc.scale]
	correct := make(map[int]int, len(sc.u)) // G-node -> S preimage
	for _, sn := range sc.u {
		correct[p.cover.Phi[sn]] = sn
	}
	nodes := make([]timedsim.Node, g.N())
	for gn := range nodes {
		if sn, ok := correct[gn]; ok {
			nodes[gn] = timedsim.Node{
				Device: newDevice(builders[g.Name(gn)], g, gn),
				Clock:  p.params.Q.ComposeRat(p.iters[p.position[sn]-sc.scale]),
			}
			continue
		}
		// Per-edge send lists are time-ordered and scaling preserves
		// order, so fold-merging them reproduces the stable sort of
		// their concatenation.
		var script []timedsim.ScriptedSend
		for _, gv := range g.Neighbors(gn) {
			sn, ok := correct[gv]
			if !ok {
				continue
			}
			pre := p.cover.EdgePreimage(sn, gn)
			recs := runS.Sends[graph.Edge{From: s.Name(pre), To: s.Name(sn)}]
			edge := make([]timedsim.ScriptedSend, len(recs))
			for i, rec := range recs {
				edge[i] = timedsim.ScriptedSend{At: scale.At(rec.At), To: g.Name(gv), Payload: rec.Payload}
			}
			script = mergeScript(script, edge)
		}
		nodes[gn] = timedsim.Node{Script: script, Clock: p.params.Q}
	}
	runG, err := timedsim.Execute(&timedsim.System{G: g, Nodes: nodes, Delta: p.params.Delta}, scale.At(p.tSecond))
	if err != nil {
		return err
	}
	for _, sn := range sc.u {
		name := s.Name(sn)
		sTicks, gTicks := runS.Ticks[sn], runG.Ticks[p.cover.Phi[sn]]
		if len(sTicks) != len(gTicks) {
			return fmt.Errorf("node %s: %d covering ticks vs %d in G", name, len(sTicks), len(gTicks))
		}
		for j, st := range sTicks {
			gt := gTicks[j]
			if scaled := scale.At(st.Time); scaled.Cmp(gt.Time) != 0 {
				return fmt.Errorf("node %s tick %d: scaled time %s != %s", name, j, scaled, gt.Time)
			}
			if st.HW.Cmp(gt.HW) != 0 {
				return fmt.Errorf("node %s tick %d: hw %s != %s", name, j, st.HW, gt.HW)
			}
			if st.Snapshot != gt.Snapshot {
				return fmt.Errorf("node %s tick %d: snapshots differ: %q vs %q", name, j, st.Snapshot, gt.Snapshot)
			}
		}
	}
	return nil
}

// evaluate applies the agreement and envelope conditions to every
// scenario at its scaled time h^-scale(t”) and lists the broken ones:
// for each member in order, its envelope, then its agreement with each
// later member.
func (p *plan) evaluate(runS *timedsim.Run) []Violation {
	const tol = 1e-9
	params := p.params
	pf, qf := params.P.Float(), params.Q.Float()
	var violations []Violation
	for _, sc := range p.scenarios {
		tauF := p.iters[sc.scale].At(p.tSecond).Float64()
		bound := params.L.At(qf.At(tauF)) - params.L.At(pf.At(tauF)) - params.Alpha
		loEnv, hiEnv := params.L.At(pf.At(tauF)), params.U.At(qf.At(tauF))
		for ai, a := range sc.u {
			ca := runS.FinalLogical[a]
			if ca < loEnv-tol || ca > hiEnv+tol {
				violations = append(violations, Violation{
					Scenario: sc.name, Condition: "envelope",
					Detail: fmt.Sprintf("C(%s) = %.6f outside [%.6f, %.6f] at scaled time %.6f",
						runS.G.Name(a), ca, loEnv, hiEnv, tauF),
				})
			}
			for _, b := range sc.u[ai+1:] {
				gap := ca - runS.FinalLogical[b]
				if gap < 0 {
					gap = -gap
				}
				if gap > bound+tol {
					violations = append(violations, Violation{
						Scenario: sc.name, Condition: "agreement",
						Detail: fmt.Sprintf("|C(%s) - C(%s)| = %.6f > %.6f at scaled time %.6f",
							runS.G.Name(a), runS.G.Name(b), gap, bound, tauF),
					})
				}
			}
		}
	}
	return violations
}

// floors are Lemma 11's floors, one per ring position: C_j(t”) >=
// l(q h⁻ʲ(t”)) + (j-1)α for j >= 1, and q∘h⁻¹ = p, so the floor is
// l(p(h^-(j-1)(t”))) + (j-1)α. Position 0 has none.
func (p *plan) floors() []float64 {
	pf := p.params.P.Float()
	floors := make([]float64, p.k+2)
	for j := 1; j < len(floors); j++ {
		tauF := p.iters[j-1].At(p.tSecond).Float64()
		floors[j] = p.params.L.At(pf.At(tauF)) + float64(j-1)*p.params.Alpha
	}
	return floors
}

// mergeScript merges two time-sorted script fragments into one sorted
// script, with dst's sends winning ties — exactly the order a stable
// insertion sort of dst followed by add would produce, but in linear
// time.
func mergeScript(dst, add []timedsim.ScriptedSend) []timedsim.ScriptedSend {
	if len(dst) == 0 {
		return add
	}
	if len(add) == 0 {
		return dst
	}
	out := make([]timedsim.ScriptedSend, 0, len(dst)+len(add))
	i, j := 0, 0
	for i < len(dst) && j < len(add) {
		if dst[i].At.Cmp(add[j].At) <= 0 {
			out = append(out, dst[i])
			i++
		} else {
			out = append(out, add[j])
			j++
		}
	}
	out = append(out, dst[i:]...)
	return append(out, add[j:]...)
}
