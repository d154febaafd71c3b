package main

import (
	"fmt"
	"math/big"
	"strings"

	"flm/internal/approx"
	"flm/internal/byzantine"
	"flm/internal/clockfn"
	"flm/internal/clocksync"
	"flm/internal/core"
	"flm/internal/firingsquad"
	"flm/internal/graph"
	"flm/internal/sim"
	"flm/internal/weak"
)

// The prove workload runs the impossibility proofs behind experiments
// E1-E8: the core chain builders for Theorems 1, 2, 4, 5 and 6 against
// the BA, weak-agreement, firing-squad and approximate-agreement device
// panels, and clocksync's Theorem 8 drivers. Single proofs cost from
// 0.5 ms to 105 ms, so an op is a bundle of proofs (see proveBundles)
// sized so that every op costs about the same.

// proof is one impossibility proof.
type proof struct {
	name    string
	theorem int
	// instance renders the seed's choices for this proof ("" when the
	// instance is fixed).
	instance string
	// golden is the first violation ("link condition") the proof must
	// report; it is set for fixed instances (taken from report.txt) and
	// empty where the seed picks the instance.
	golden string
	run    func(env *opEnv) (proofResult, error)
}

// proofResult is what one proof returns: a core chain or a Theorem 8
// result.
type proofResult struct {
	chain *core.ChainResult
	clock *clocksync.Result
}

// verdict renders the proof's outcome; warm and traced reruns must
// reproduce it byte for byte.
func (r proofResult) verdict() string {
	if r.chain != nil {
		return r.chain.String()
	}
	return r.clock.String()
}

// predicted is, per theorem, the set of conditions its argument can
// force to fail: the problem's own correctness conditions.
var predicted = map[int][]string{
	1: {"termination", "agreement", "validity"},
	2: {"choice", "agreement", "validity"},
	4: {"agreement", "validity"},
	5: {"termination", "agreement", "validity"},
	6: {"termination", "agreement", "validity"},
	8: {"agreement", "envelope"},
}

// checkProof verifies one proof's output: a contradiction was found,
// every violated condition is one its theorem predicts, the first one
// names a behavior of the chain, and fixed instances match the golden
// verdict.
func checkProof(p proof, r proofResult) error {
	var first string
	var conds []string
	switch {
	case r.chain != nil:
		if !r.chain.Contradicted() {
			return fmt.Errorf("%s: no contradiction", p.name)
		}
		links := map[string]bool{}
		for _, l := range r.chain.Links {
			links[l.Name] = true
		}
		v := r.chain.Violations[0]
		if !links[v.Link] {
			return fmt.Errorf("%s: first violation in unknown behavior %q", p.name, v.Link)
		}
		first = v.Link + " " + v.Condition
		for _, v := range r.chain.Violations {
			conds = append(conds, v.Condition)
		}
	case r.clock != nil:
		if !r.clock.Contradicted() {
			return fmt.Errorf("%s: no contradiction", p.name)
		}
		v := r.clock.Violations[0]
		first = v.Scenario + " " + v.Condition
		for _, v := range r.clock.Violations {
			conds = append(conds, v.Condition)
		}
	default:
		return fmt.Errorf("%s: no result", p.name)
	}
	for _, c := range conds {
		if !contains(predicted[p.theorem], c) {
			return fmt.Errorf("%s: Theorem %d cannot violate %q", p.name, p.theorem, c)
		}
	}
	if p.golden != "" && first != p.golden {
		return fmt.Errorf("%s: first violation %q, want %q", p.name, first, p.golden)
	}
	return nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// uniform installs builder b at every node of g.
func uniform(g *graph.Graph, b sim.Builder) map[string]sim.Builder {
	m := make(map[string]sim.Builder, g.N())
	for _, name := range g.Names() {
		m[name] = b
	}
	return m
}

// split cuts a permutation into consecutive blocks of the given sizes.
func split(p []int, sizes ...int) [][]int {
	out := make([][]int, len(sizes))
	at := 0
	for i, s := range sizes {
		out[i] = p[at : at+s]
		at += s
	}
	return out
}

// rotate adds r to every index modulo n.
func rotate(idx []int, r, n int) []int {
	out := make([]int, len(idx))
	for i, x := range idx {
		out[i] = (x + r) % n
	}
	return out
}

// proofCatalogue builds every proof of the workload. The rng picks the
// instance of each proof that has a choice: the block partition of a
// complete graph, or the rotation of a cut on a vertex-transitive graph.
// Every choice is an isomorphic instance, so every seed does the same
// work; the violated link may differ, so those proofs are checked
// against their theorem's predictions rather than a golden row.
func proofCatalogue(rng *rng) []proof {
	var ps []proof
	chain := func(name string, th int, golden, instance string, f func(w wrapFn) (*core.ChainResult, error)) {
		ps = append(ps, proof{name: name, theorem: th, golden: golden, instance: instance, run: func(env *opEnv) (proofResult, error) {
			var cr *core.ChainResult
			err := env.call("bench.prove", func() (err error) {
				cr, err = f(env.wrap)
				return err
			})
			return proofResult{chain: cr}, err
		}})
	}
	clock := func(name, golden, instance string, f func() (*clocksync.Result, error)) {
		ps = append(ps, proof{name: name, theorem: 8, golden: golden, instance: instance, run: func(env *opEnv) (proofResult, error) {
			var r *clocksync.Result
			err := env.call("bench.theorem8", func() (err error) {
				r, err = f()
				return err
			})
			return proofResult{clock: r}, err
		}})
	}
	tri, dia := graph.Triangle(), graph.Diamond()
	type dev struct {
		name, golden string
		b            func() sim.Builder
	}

	// E1: Theorem 1, node bound.
	for _, d := range []dev{
		{"majority", "E2 agreement", func() sim.Builder { return byzantine.NewMajority(2) }},
		{"echo", "E2 agreement", func() sim.Builder { return byzantine.NewEcho(2) }},
		{"own-input", "E2 agreement", func() sim.Builder { return byzantine.NewOwnInput(2) }},
		{"const-0", "E3 validity", func() sim.Builder { return byzantine.NewConstant("0", 2) }},
		{"const-1", "E1 validity", func() sim.Builder { return byzantine.NewConstant("1", 2) }},
		{"eig", "E3 validity", func() sim.Builder { return byzantine.NewEIG(1, tri.Names()) }},
		{"phase-king", "E2 agreement", func() sim.Builder { return byzantine.NewPhaseKing(1, tri.Names()) }},
		{"turpin-coan", "E2 agreement", func() sim.Builder { return byzantine.NewTurpinCoan(1, tri.Names()) }},
	} {
		d := d
		chain("t1.triangle."+d.name, 1, d.golden, "", func(w wrapFn) (*core.ChainResult, error) {
			return core.ByzantineTriangle(uniform(tri, w(d.b())), d.name, 8)
		})
	}
	for _, c := range []struct{ n, f int }{{5, 2}, {6, 2}, {9, 3}} {
		g := graph.Complete(c.n)
		f := c.f
		sizes := []int{f, f, c.n - 2*f}
		b := split(rng.perm(c.n), sizes...)
		chain(fmt.Sprintf("t1.K%d.eig", c.n), 1, "", fmt.Sprint("blocks ", b), func(w wrapFn) (*core.ChainResult, error) {
			return core.ByzantineNodes(g, f, b[0], b[1], b[2],
				uniform(g, w(byzantine.NewEIG(f, g.Names()))), "eig", byzantine.EIGRounds(f)+2)
		})
	}

	// E2: Theorem 1, connectivity bound.
	for _, d := range []dev{
		{"majority", "E2 agreement", func() sim.Builder { return byzantine.NewMajority(3) }},
		{"echo", "E2 agreement", func() sim.Builder { return byzantine.NewEcho(3) }},
		{"own-input", "E2 agreement", func() sim.Builder { return byzantine.NewOwnInput(3) }},
		{"const-0", "E3 validity", func() sim.Builder { return byzantine.NewConstant("0", 3) }},
	} {
		d := d
		chain("t1.diamond."+d.name, 1, d.golden, "", func(w wrapFn) (*core.ChainResult, error) {
			return core.ByzantineDiamond(uniform(dia, w(d.b())), d.name, 10)
		})
	}
	ring6 := graph.Ring(6)
	r6 := rng.intn(6)
	chain("t1.ring6.majority", 1, "", fmt.Sprint("rotation ", r6), func(w wrapFn) (*core.ChainResult, error) {
		return core.ByzantineConnectivity(ring6, 1, rotate([]int{1}, r6, 6), rotate([]int{4}, r6, 6), r6, (2+r6)%6,
			uniform(ring6, w(byzantine.NewMajority(3))), "majority", 10)
	})
	circ := graph.Circulant(10, 1, 2)
	rc := rng.intn(10)
	chain("t1.circulant10.eig", 1, "", fmt.Sprint("rotation ", rc), func(w wrapFn) (*core.ChainResult, error) {
		return core.ByzantineConnectivity(circ, 2, rotate([]int{1, 9}, rc, 10), rotate([]int{2, 8}, rc, 10), rc, (5+rc)%10,
			uniform(circ, w(byzantine.NewEIG(2, circ.Names()))), "eig", byzantine.EIGRounds(2)+4)
	})

	// The diamond's two cuts ({b,d} and {a,c}) are swapped by rotation.
	dr := rng.intn(2)
	diaCut := func() (b, d []int, u, v int) { return []int{1 - dr}, []int{3 - dr}, dr, 2 + dr }
	diaInst := fmt.Sprint("rotation ", dr)
	k6 := graph.Complete(6)
	k6blocks := func() [][]int { return split(rng.perm(6), 2, 2, 2) }

	// E3: Theorem 2.
	for _, d := range []dev{
		{"detect-default", "E2 agreement", func() sim.Builder { return weak.NewDetectDefault(3) }},
		{"detect-slow", "E4 agreement", func() sim.Builder { return weak.NewDetectDefault(5) }},
		{"via-eig", "E0 agreement", func() sim.Builder { return weak.NewViaBA(1, tri.Names()) }},
	} {
		d := d
		chain("t2.ring."+d.name, 2, d.golden, "", func(w wrapFn) (*core.ChainResult, error) {
			return core.WeakAgreementRing(uniform(tri, w(d.b())), d.name, 16)
		})
	}
	for _, d := range []dev{
		{"detect-default", "", func() sim.Builder { return weak.NewDetectDefault(4) }},
		{"majority", "", func() sim.Builder { return byzantine.NewMajority(3) }},
	} {
		d := d
		chain("t2.cut."+d.name, 2, "", diaInst, func(w wrapFn) (*core.ChainResult, error) {
			b, dd, u, v := diaCut()
			return core.WeakAgreementCutRing(dia, 1, b, dd, u, v, uniform(dia, w(d.b())), d.name, 20)
		})
	}
	for _, d := range []dev{
		{"detect-default", "", func() sim.Builder { return weak.NewDetectDefault(3) }},
		{"majority", "", func() sim.Builder { return byzantine.NewMajority(2) }},
	} {
		d := d
		bl := k6blocks()
		chain("t2.nodes."+d.name, 2, "", fmt.Sprint("blocks ", bl), func(w wrapFn) (*core.ChainResult, error) {
			return core.WeakAgreementNodesRing(k6, 2, bl[0], bl[1], bl[2], uniform(k6, w(d.b())), d.name, 16)
		})
	}

	// E4: Theorem 4.
	for _, d := range []dev{
		{"countdown-2", "E7 agreement", func() sim.Builder { return firingsquad.NewCountdown(2) }},
		{"countdown-4", "E15 agreement", func() sim.Builder { return firingsquad.NewCountdown(4) }},
		{"via-eig", "E11 agreement", func() sim.Builder { return firingsquad.NewViaBA(1, tri.Names()) }},
	} {
		d := d
		chain("t4.ring."+d.name, 4, d.golden, "", func(w wrapFn) (*core.ChainResult, error) {
			return core.FiringSquadRing(uniform(tri, w(d.b())), d.name, 20)
		})
	}
	for _, d := range []dev{
		{"countdown-2", "", func() sim.Builder { return firingsquad.NewCountdown(2) }},
		{"countdown-5", "", func() sim.Builder { return firingsquad.NewCountdown(5) }},
	} {
		d := d
		chain("t4.cut."+d.name, 4, "", diaInst, func(w wrapFn) (*core.ChainResult, error) {
			b, dd, u, v := diaCut()
			return core.FiringSquadCutRing(dia, 1, b, dd, u, v, uniform(dia, w(d.b())), d.name, 30)
		})
	}
	for _, d := range []dev{
		{"countdown-2", "", func() sim.Builder { return firingsquad.NewCountdown(2) }},
		{"via-eig", "", func() sim.Builder { return firingsquad.NewViaBA(2, k6.Names()) }},
	} {
		d := d
		bl := k6blocks()
		chain("t4.nodes."+d.name, 4, "", fmt.Sprint("blocks ", bl), func(w wrapFn) (*core.ChainResult, error) {
			return core.FiringSquadNodesRing(k6, 2, bl[0], bl[1], bl[2], uniform(k6, w(d.b())), d.name, 32)
		})
	}

	// E5: Theorem 5.
	for _, d := range []dev{
		{"median", "E2 agreement", func() sim.Builder { return approx.NewMedian(2) }},
		{"dlpsw-2", "E2 agreement", func() sim.Builder { return approx.NewDLPSW(1, tri.Names(), 2) }},
		{"dlpsw-6", "E2 agreement", func() sim.Builder { return approx.NewDLPSW(1, tri.Names(), 6) }},
		{"own-value", "E2 agreement", func() sim.Builder { return approx.NewMedian(0) }},
	} {
		d := d
		chain("t5.triangle."+d.name, 5, d.golden, "", func(w wrapFn) (*core.ChainResult, error) {
			return core.SimpleApproxTriangle(uniform(tri, w(d.b())), d.name, 12)
		})
	}
	for _, d := range []dev{
		{"median", "", func() sim.Builder { return approx.NewMedian(3) }},
		{"dlpsw-4", "", func() sim.Builder { return approx.NewDLPSW(1, dia.Names(), 4) }},
	} {
		d := d
		chain("t5.cut."+d.name, 5, "", diaInst, func(w wrapFn) (*core.ChainResult, error) {
			b, dd, u, v := diaCut()
			return core.SimpleApproxConnectivity(dia, 1, b, dd, u, v, uniform(dia, w(d.b())), d.name, 12)
		})
	}

	// E6: Theorem 6.
	edg := core.EDGParams{Eps: 0.2, Delta: 1, Gamma: 0.5}
	for _, d := range []dev{
		{"median", "S1 agreement", func() sim.Builder { return approx.NewMedian(2) }},
		{"dlpsw-4", "S1 agreement", func() sim.Builder { return approx.NewDLPSW(1, tri.Names(), 4) }},
	} {
		d := d
		chain("t6.ring."+d.name, 6, d.golden, "", func(w wrapFn) (*core.ChainResult, error) {
			return core.EpsilonDeltaGamma(edg, uniform(tri, w(d.b())), d.name, 10)
		})
	}
	bl6 := k6blocks()
	chain("t6.nodes.dlpsw", 6, "", fmt.Sprint("blocks ", bl6), func(w wrapFn) (*core.ChainResult, error) {
		return core.EpsilonDeltaGammaNodes(edg, k6, 2, bl6[0], bl6[1], bl6[2],
			uniform(k6, w(approx.NewDLPSW(2, k6.Names(), 4))), "dlpsw", 10)
	})
	chain("t6.cut.median", 6, "", diaInst, func(w wrapFn) (*core.ChainResult, error) {
		b, dd, u, v := diaCut()
		return core.EpsilonDeltaGammaConnectivity(edg, dia, 1, b, dd, u, v,
			uniform(dia, w(approx.NewMedian(2))), "median", 10)
	})

	// E7: Theorem 8 on the scaled ring, and its general cases.
	cp := clocksync.Params{
		P: clockfn.RatIdentity(), Q: clockfn.NewRatLinear(3, 2, 0, 1),
		L: clockfn.Linear{Rate: 1, Off: 0}, U: clockfn.Linear{Rate: 1, Off: 4},
		Alpha: 1.5, TPrime: big.NewRat(4, 1), Delta: big.NewRat(1, 2),
	}
	onTriangle := func(b clocksync.Builder) map[string]clocksync.Builder {
		return map[string]clocksync.Builder{"a": b, "b": b, "c": b}
	}
	onAll := func(g *graph.Graph, b func() clocksync.Builder) map[string]clocksync.Builder {
		m := map[string]clocksync.Builder{}
		for _, n := range g.Names() {
			m[n] = b()
		}
		return m
	}
	for _, d := range []struct {
		name, golden string
		b            func() clocksync.Builder
	}{
		{"trivial-lower", "S0 agreement", func() clocksync.Builder { return clocksync.NewTrivialLower(cp.L) }},
		{"chase-max", "S1 envelope", func() clocksync.Builder { return clocksync.NewChaseMax(cp.L) }},
		{"midpoint", "S0 envelope", func() clocksync.Builder { return clocksync.NewMidpoint(cp.L) }},
	} {
		d := d
		clock("t8.ring."+d.name, d.golden, "", func() (*clocksync.Result, error) {
			return clocksync.Theorem8(cp, onTriangle(d.b()))
		})
	}
	bl8 := k6blocks()
	clock("t8.nodes.chase-max", "", fmt.Sprint("blocks ", bl8), func() (*clocksync.Result, error) {
		return clocksync.Theorem8Nodes(cp, k6, bl8[0], bl8[1], bl8[2], 2,
			onAll(k6, func() clocksync.Builder { return clocksync.NewChaseMax(cp.L) }))
	})
	clock("t8.cut.chase-max", "", diaInst, func() (*clocksync.Result, error) {
		b, dd, u, v := diaCut()
		return clocksync.Theorem8Connectivity(cp, dia, b, dd, u, v, 1,
			onAll(dia, func() clocksync.Builder { return clocksync.NewChaseMax(cp.L) }))
	})

	// E8: the Section 7.1 corollaries against the trivial and chasing
	// devices (the cells of E8's grid, proved one by one). Corollary 15's
	// log2 clocks are left out: its two cells cost about 100 ms and
	// 280 ms each, single proofs longer than the op-size band allows.
	tPrime := big.NewRat(4, 1)
	for _, c := range []struct {
		name string
		p    clocksync.Params
	}{
		{"cor12", clocksync.Corollary12(3, 2, 1, 0, 1, 4, 1.5, tPrime)},
		{"cor13", clocksync.Corollary13(3, 2, 1, 0, 1.5, tPrime)},
		{"cor14", clocksync.Corollary14(2, 1, 1, 0, 1, tPrime)},
	} {
		c := c
		clock("t8."+c.name+".trivial-lower", "", "", func() (*clocksync.Result, error) {
			return clocksync.Theorem8(c.p, onTriangle(clocksync.NewTrivialLower(c.p.L)))
		})
		clock("t8."+c.name+".chase-max", "", "", func() (*clocksync.Result, error) {
			return clocksync.Theorem8(c.p, onTriangle(clocksync.NewChaseMax(c.p.L)))
		})
	}
	return ps
}

// proveBundles groups the catalogue into ops. Balanced from `flmbench
// calibrate` on a 2-vCPU host: every bundle costs about 115 ms
// (drift-corrected), the cost of the largest single proof plus a few
// small ones, so the op-cost distribution of a cold pass has one mode
// and every op of a run, not one bundle's share of them, informs p50
// and p90.
var proveBundles = [][]string{
	{"t8.ring.midpoint", "t4.cut.countdown-5", "t8.ring.chase-max", "t8.cor12.chase-max",
		"t4.ring.countdown-2", "t8.cor14.chase-max", "t6.nodes.dlpsw", "t1.triangle.echo",
		"t1.diamond.own-input", "t5.triangle.dlpsw-6", "t1.triangle.const-0"},
	{"t4.nodes.countdown-2", "t8.cut.chase-max", "t8.nodes.chase-max", "t2.ring.detect-slow",
		"t2.ring.detect-default", "t4.ring.countdown-4", "t8.cor12.trivial-lower", "t1.diamond.echo",
		"t5.triangle.median", "t6.ring.dlpsw-4", "t1.triangle.majority", "t1.triangle.eig"},
	{"t4.nodes.via-eig", "t6.cut.median", "t8.cor13.trivial-lower", "t1.K5.eig", "t5.cut.median",
		"t5.cut.dlpsw-4", "t1.triangle.turpin-coan", "t1.triangle.own-input"},
	{"t1.K9.eig", "t2.nodes.majority", "t2.cut.majority", "t1.circulant10.eig", "t1.K6.eig",
		"t8.ring.trivial-lower", "t6.ring.median", "t5.triangle.own-value", "t8.cor14.trivial-lower",
		"t1.triangle.const-1", "t1.triangle.phase-king"},
	{"t2.nodes.detect-default", "t2.cut.detect-default", "t4.cut.countdown-2", "t8.cor13.chase-max",
		"t4.ring.via-eig", "t2.ring.via-eig", "t1.ring6.majority", "t1.diamond.majority",
		"t1.diamond.const-0", "t5.triangle.dlpsw-2"},
}

// proveOps turns the catalogue into one op per bundle. Each op's result
// is the list of its proofs' results; its check verifies every proof
// and compares the rendered verdicts with the reference verdicts of the
// run (set by the first pass that computes them).
func proveOps(cat []proof, ref map[string]string) ([]op, error) {
	byName := map[string]proof{}
	for _, p := range cat {
		byName[p.name] = p
	}
	used := map[string]bool{}
	var ops []op
	for _, names := range proveBundles {
		var ps []proof
		for _, n := range names {
			p, ok := byName[n]
			if !ok || used[n] {
				return nil, fmt.Errorf("prove: bundle names unknown or repeated proof %q", n)
			}
			used[n] = true
			ps = append(ps, p)
		}
		kind := names[0]
		if len(names) > 1 {
			kind += fmt.Sprintf("+%d", len(names)-1)
		}
		var input strings.Builder
		for _, p := range ps {
			fmt.Fprintf(&input, "%s[%s] ", p.name, p.instance)
		}
		ops = append(ops, op{
			kind:  kind,
			input: input.String(),
			run: func(env *opEnv) (any, error) {
				out := make([]proofResult, len(ps))
				for i, p := range ps {
					r, err := p.run(env)
					if err != nil {
						return nil, fmt.Errorf("%s: %w", p.name, err)
					}
					out[i] = r
				}
				return out, nil
			},
			check: func(res any, st *opStats) (string, error) {
				out := res.([]proofResult)
				var verdicts strings.Builder
				for i, p := range ps {
					if err := checkProof(p, out[i]); err != nil {
						return "", err
					}
					if out[i].chain != nil {
						st.coreProofs++
						st.coverNodes += out[i].chain.CoverSize
					}
					verdicts.WriteString(out[i].verdict())
				}
				v := verdicts.String()
				if want, ok := ref[kind]; !ok {
					ref[kind] = v
				} else if v != want {
					return "", fmt.Errorf("verdict differs from the run's reference verdict")
				}
				return v, nil
			},
		})
	}
	if len(used) != len(cat) {
		return nil, fmt.Errorf("prove: %d of %d proofs are in no bundle", len(cat)-len(used), len(cat))
	}
	return ops, nil
}
