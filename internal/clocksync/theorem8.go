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
	K          int       // the induction length (ring has K+2 nodes)
	TSecond    *big.Rat  // t'' = h^K(t'), the evaluation time in ring frame
	Logical    []float64 // C_i at t'' for every ring node
	Floors     []float64 // Lemma 11 floors l(q h^{-(i)}(t'')) + (i-1)α forced on C_i
	Violations []Violation
	Run        *timedsim.Run
}

// Contradicted reports whether a condition was violated (the theorem
// guarantees it).
func (r *Result) Contradicted() bool { return len(r.Violations) > 0 }

// String renders the argument.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Theorem 8 — clock synchronization, ring of %d nodes, k=%d\n", r.K+2, r.K)
	for i, c := range r.Logical {
		fmt.Fprintf(&b, "  node %d: C_i(t'') = %.6f\n", i, c)
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

// theorem8Prep is everything a Theorem 8 run needs that depends only on
// the Params, not on the devices: the induction length, the verified ring
// cover, h = p⁻¹∘q, the table of its inverse iterates, and t”. Grid
// sweeps (EvalGrid) build one prep per parameter case and share it across
// every device cell; the prep is read-only during runs, and its
// rationals are immutable clockfn.Q values.
type theorem8Prep struct {
	params  Params
	k       int
	cover   *graph.Cover
	h       clockfn.RatLinear
	iters   []clockfn.RatLinear // iters[i] = h⁻ⁱ, i = 0..k+1
	tSecond clockfn.Q           // t'' = hᵏ(t')
}

// prepareTheorem8 does the device-independent setup of the Theorem 8
// argument. Ring construction, cover verification, and the O(k) iterate
// table replace the O(k²) per-scenario IterateRat calls of the direct
// formulation.
func prepareTheorem8(params Params) (*theorem8Prep, error) {
	k, err := params.ChooseK()
	if err != nil {
		return nil, err
	}
	size := k + 2
	cover := graph.RingCoverTriangle(size)
	if err := cover.Verify(); err != nil {
		return nil, err
	}
	h := params.H()
	iters := clockfn.Iterates(h, -1, size-1)
	tSecond := h.IterateRat(k).At(clockfn.FromRat(params.TPrime))
	return &theorem8Prep{params: params, k: k, cover: cover, h: h, iters: iters, tSecond: tSecond}, nil
}

// Theorem8 mechanizes the clock synchronization impossibility on the
// triangle. Devices (keyed by triangle node name a/b/c) are installed on
// the (k+2)-ring covering with hardware clocks D_i = q∘h⁻ⁱ; the system
// runs to real time t” = hᵏ(t'); and for every scaled scenario Sᵢhⁱ
// (adjacent pair i, i+1 viewed with clocks q and p) the agreement and
// envelope conditions are evaluated at the scaled time h⁻ⁱ(t”) >= t'.
// Lemma 11's arithmetic makes them jointly unsatisfiable, so at least one
// recorded violation is guaranteed for any devices whatsoever.
func Theorem8(params Params, builders map[string]Builder) (*Result, error) {
	prep, err := prepareTheorem8(params)
	if err != nil {
		return nil, err
	}
	return runTheorem8(prep, builders)
}

// runTheorem8 is the device-dependent half: install the panel on the
// prepared ring, execute, self-check, and evaluate the conditions. Safe
// to call concurrently with the same prep.
func runTheorem8(prep *theorem8Prep, builders map[string]Builder) (*Result, error) {
	params, k, tSecond := prep.params, prep.k, prep.tSecond
	size := k + 2
	sys, err := installRing(prep.cover, params, builders, prep.iters)
	if err != nil {
		return nil, err
	}
	// The fastest node experiences q(t'') of hardware time, i.e. about
	// q(hᵏ(t'))/Δ ticks — exponential in k for rate-scaled clocks. Guard
	// against parameter choices that would take hours to simulate; a
	// larger alpha (or tighter envelopes) shrinks k.
	if est := ticksEstimate(params, tSecond); est > 5e5 {
		return nil, fmt.Errorf("clocksync: parameters need ~%.0f ticks (k=%d, t''=%s); increase alpha or tighten the envelopes",
			est, k, tSecond)
	}
	run, err := timedsim.Execute(sys, tSecond)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Params:  params,
		K:       k,
		TSecond: tSecond.Rat(new(big.Rat)),
		Logical: append([]float64(nil), run.FinalLogical...),
		Run:     run,
	}
	// Lemma 9/Scaling self-check on a sample of scenarios: the scaled
	// pair must replay as two correct nodes of the triangle.
	for _, i := range sampleScenarios(k) {
		if err := checkLemma9(prep.cover, params, builders, prep.iters, run, i, tSecond); err != nil {
			return nil, fmt.Errorf("clocksync: Lemma 9 self-check failed for S%d: %w", i, err)
		}
	}
	// Condition evaluation per scaled scenario.
	const tol = 1e-9
	lF := params.L
	uF := params.U
	pf, qf := params.P.Float(), params.Q.Float()
	res.Floors = make([]float64, size)
	for i := 0; i <= k; i++ {
		tauF := prep.iters[i].At(tSecond).Float64()
		scen := fmt.Sprintf("S%d", i)
		bound := lF.At(qf.At(tauF)) - lF.At(pf.At(tauF)) - params.Alpha
		gap := res.Logical[i+1] - res.Logical[i]
		if gap < 0 {
			gap = -gap
		}
		if gap > bound+tol {
			res.Violations = append(res.Violations, Violation{
				Scenario: scen, Condition: "agreement",
				Detail: fmt.Sprintf("|C_%d - C_%d| = %.6f > l(q)-l(p)-α = %.6f at scaled time %.6f",
					i+1, i, gap, bound, tauF),
			})
		}
		loEnv, hiEnv := lF.At(pf.At(tauF)), uF.At(qf.At(tauF))
		for _, node := range []int{i, i + 1} {
			c := res.Logical[node]
			if c < loEnv-tol || c > hiEnv+tol {
				res.Violations = append(res.Violations, Violation{
					Scenario: scen, Condition: "envelope",
					Detail: fmt.Sprintf("C_%d = %.6f outside [l(p)=%.6f, u(q)=%.6f] at scaled time %.6f",
						node, c, loEnv, hiEnv, tauF),
				})
			}
		}
		if i+1 < size {
			// Lemma 11: C_{i+1}(t'') >= l(q h^{-(i+1)}(t'')) + i*α, and
			// q∘h⁻¹ = p, so the floor is l(p(τ_i)) + i*α.
			res.Floors[i+1] = lF.At(pf.At(tauF)) + float64(i)*params.Alpha
		}
	}
	if !res.Contradicted() {
		return res, fmt.Errorf("clocksync: no condition violated — impossible by Lemma 11:\n%s", res)
	}
	return res, nil
}

// sampleScenarios picks the scenarios to re-execute for the Lemma 9
// self-check (all of them would be quadratic in k; ends and middle
// suffice to validate the machinery).
func sampleScenarios(k int) []int {
	if k <= 2 {
		out := make([]int, k+1)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return []int{0, k / 2, k}
}

// installRing builds the timed system on the ring cover: node i runs the
// device of its triangle image (renamed) with hardware clock q∘h⁻ⁱ,
// taken from the prepared iterate table (iters[i] = h⁻ⁱ). The cover was
// verified by prepareTheorem8.
func installRing(cover *graph.Cover, params Params, builders map[string]Builder, iters []clockfn.RatLinear) (*timedsim.System, error) {
	s, g := cover.S, cover.G
	nodes := make([]timedsim.Node, s.N())
	for i := 0; i < s.N(); i++ {
		gName := g.Name(cover.Phi[i])
		b, ok := builders[gName]
		if !ok {
			return nil, fmt.Errorf("clocksync: no builder for triangle node %q", gName)
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
			Clock:  params.Q.ComposeRat(iters[i]),
		}
	}
	return &timedsim.System{G: s, Nodes: nodes, Delta: params.Delta}, nil
}

func sortedStrings(s []string) []string {
	out := append([]string(nil), s...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// checkLemma9 re-executes scenario S_i scaled by hⁱ as an actual triangle
// run: the images of nodes i and i+1 run their devices with clocks q and
// p, the third triangle node replays the scaled border traffic, and the
// tick sequences must match the ring's exactly (times scaled by h⁻ⁱ,
// hardware readings and snapshots identical). This validates the
// Scaling, Locality, and Fault axioms on the actual run.
func checkLemma9(cover *graph.Cover, params Params, builders map[string]Builder, iters []clockfn.RatLinear, ringRun *timedsim.Run, i int, tSecond clockfn.Q) error {
	s, g := cover.S, cover.G
	size := s.N()
	scale := iters[i]
	gi, gj := g.Name(cover.Phi[i]), g.Name(cover.Phi[(i+1)%size])
	third := otherTriangleNode(gi, gj)

	// Scripted border traffic: messages into i from i-1 (played as
	// third->gi) and into i+1 from i+2 (played as third->gj), times
	// scaled by h^{-i}. Each edge's sends are already time-ordered and
	// scaling preserves order, so a merge replaces the full sort.
	var intoGi, intoGj []timedsim.ScriptedSend
	prev, next := (i-1+size)%size, (i+2)%size
	for _, rec := range ringRun.Sends[graph.Edge{From: s.Name(prev), To: s.Name(i)}] {
		intoGi = append(intoGi, timedsim.ScriptedSend{At: scale.At(rec.At), To: gi, Payload: rec.Payload})
	}
	for _, rec := range ringRun.Sends[graph.Edge{From: s.Name(next), To: s.Name((i + 1) % size)}] {
		intoGj = append(intoGj, timedsim.ScriptedSend{At: scale.At(rec.At), To: gj, Payload: rec.Payload})
	}
	script := mergeScript(intoGi, intoGj)

	tri := graph.Triangle()
	nodes := make([]timedsim.Node, 3)
	for idx := 0; idx < 3; idx++ {
		name := tri.Name(idx)
		switch name {
		case gi:
			dev := builders[name](name, triNeighbors(tri, name))
			dev.Init(name, triNeighbors(tri, name))
			nodes[idx] = timedsim.Node{Device: dev, Clock: params.Q}
		case gj:
			dev := builders[name](name, triNeighbors(tri, name))
			dev.Init(name, triNeighbors(tri, name))
			nodes[idx] = timedsim.Node{Device: dev, Clock: params.P}
		case third:
			nodes[idx] = timedsim.Node{Script: script, Clock: params.Q}
		}
	}
	until := scale.At(tSecond)
	triRun, err := timedsim.Execute(&timedsim.System{G: tri, Nodes: nodes, Delta: params.Delta}, until)
	if err != nil {
		return err
	}
	// Compare tick sequences: ring node i vs triangle gi, ring i+1 vs gj.
	pairs := []struct {
		ringNode int
		gName    string
	}{{i, gi}, {(i + 1) % size, gj}}
	for _, pair := range pairs {
		ringTicks := ringRun.Ticks[pair.ringNode]
		triTicks, err := triRun.TicksOf(pair.gName)
		if err != nil {
			return err
		}
		if len(ringTicks) != len(triTicks) {
			return fmt.Errorf("node %s: %d ring ticks vs %d triangle ticks",
				pair.gName, len(ringTicks), len(triTicks))
		}
		for j := range ringTicks {
			rt, tt := ringTicks[j], triTicks[j]
			if scaled := scale.At(rt.Time); scaled.Cmp(tt.Time) != 0 {
				return fmt.Errorf("node %s tick %d: scaled time %s != %s",
					pair.gName, j, scaled, tt.Time)
			}
			if rt.HW.Cmp(tt.HW) != 0 {
				return fmt.Errorf("node %s tick %d: hw %s != %s",
					pair.gName, j, rt.HW, tt.HW)
			}
			if rt.Snapshot != tt.Snapshot {
				return fmt.Errorf("node %s tick %d: snapshots differ: %q vs %q",
					pair.gName, j, rt.Snapshot, tt.Snapshot)
			}
		}
	}
	return nil
}

func otherTriangleNode(a, b string) string {
	for _, n := range []string{"a", "b", "c"} {
		if n != a && n != b {
			return n
		}
	}
	return ""
}

func triNeighbors(tri *graph.Graph, name string) []string {
	var out []string
	u := tri.MustIndex(name)
	for _, v := range tri.Neighbors(u) {
		out = append(out, tri.Name(v))
	}
	return sortedStrings(out)
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
