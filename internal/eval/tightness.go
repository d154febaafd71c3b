package eval

import (
	"fmt"
	"math"

	"flm/internal/adversary"
	"flm/internal/approx"
	"flm/internal/byzantine"
	"flm/internal/core"
	"flm/internal/dolev"
	"flm/internal/firingsquad"
	"flm/internal/graph"
	"flm/internal/sim"
	"flm/internal/sweep"
	"flm/internal/weak"
)

// attackSweep runs a Byzantine agreement trial for every (input
// pattern, faulty node, strategy) combination and returns passed/total
// counts. honest returns one trial's honest builder: the signed devices
// need a fresh signature registry per execution, and every other caller
// returns one shared builder. Each input assignment is built once per
// bit pattern and shared read-only by that pattern's trials via the
// grouped sweep. Each trial runs the simulator in decision-only fast
// mode, and results are collected in trial-index order, so the outcome
// is identical to the sequential loop.
func attackSweep(g *graph.Graph, honest func() sim.Builder, rounds int, bitPatterns []int, seed int64) (passed, total int, err error) {
	names := g.Names()
	panel := adversary.Panel(seed)
	perPattern := len(names) * len(panel)
	sizes := make([]int, len(bitPatterns))
	for i := range sizes {
		sizes[i] = perPattern
	}
	grouped, err := sweep.Grouped(sizes,
		func(p int) map[string]sim.Input {
			bits := bitPatterns[p]
			inputs := make(map[string]sim.Input, len(names))
			for j, name := range names {
				inputs[name] = sim.BoolInput(bits&(1<<uint(j)) != 0)
			}
			return inputs
		},
		func(p, rest int, inputs map[string]sim.Input) (bool, error) {
			h := honest()
			trial := byzantine.Trial{
				G:      g,
				Inputs: inputs,
				Honest: h,
				Faulty: map[string]sim.Builder{names[rest/len(panel)]: panel[rest%len(panel)].Corrupt(h)},
				Rounds: rounds,
			}
			_, _, rep, err := trial.RunWith(sim.ExecuteOpts{})
			return rep.OK(), err
		})
	if err != nil {
		return 0, 0, err
	}
	for _, group := range grouped {
		for _, ok := range group {
			total++
			if ok {
				passed++
			}
		}
	}
	return passed, total, nil
}

func bitPatternsFor(n, count int) []int {
	patterns := []int{0, 1<<uint(n) - 1}
	x := 0x5a5a5a & (1<<uint(n) - 1)
	for len(patterns) < count {
		patterns = append(patterns, x)
		x = (x*2654435761 + 12345) & (1<<uint(n) - 1)
	}
	return patterns
}

// RunE9 sweeps EIG and phase king across the adequacy boundary.
func RunE9() (*Result, error) {
	res := &Result{
		ID: "E9", Name: "Tightness: EIG and phase king on adequate graphs",
		Paper: "context: [PSL], [LSP] upper bounds",
		Summary: "EIG withstands the full attack panel exactly from n = 3f+1 upward; at n = 3f " +
			"the engine's covering argument defeats it. Phase king (polynomial messages) does " +
			"the same from n = 4f+1.",
	}
	t := &Table{
		Title:   "EIG under the attack panel (pass fraction over inputs × faulty node × strategy)",
		Columns: []string{"n", "f", "adequate", "passed", "total", "note"},
	}
	for _, c := range []struct{ n, f int }{{4, 1}, {5, 1}, {6, 1}, {7, 2}, {8, 2}} {
		g := graph.Complete(c.n)
		honest := byzantine.NewEIG(c.f, g.Names())
		passed, total, err := attackSweep(g, func() sim.Builder { return honest }, byzantine.EIGRounds(c.f), bitPatternsFor(c.n, 4), 7)
		if err != nil {
			return nil, err
		}
		note := ""
		if passed != total {
			note = "UNEXPECTED FAILURES"
		}
		t.AddRow(c.n, c.f, g.IsAdequate(c.f), passed, total, note)
	}
	// The boundary from below: the engine defeats EIG at n = 3f.
	for _, f := range []int{1, 2} {
		n := 3 * f
		g := graph.Complete(n)
		var blocks [3][]int
		for i := 0; i < n; i++ {
			blocks[i/f] = append(blocks[i/f], i)
		}
		cr, err := core.ByzantineNodes(g, f, blocks[0], blocks[1], blocks[2],
			uniformBuilders(g, byzantine.NewEIG(f, g.Names())), "eig", byzantine.EIGRounds(f)+2)
		if err != nil {
			return nil, err
		}
		t.AddRow(n, f, false, 0, 1, fmt.Sprintf("engine: %s %s", cr.Violations[0].Link, cr.Violations[0].Condition))
	}
	res.Tables = append(res.Tables, t)

	pk := &Table{
		Title:   "Phase king under the attack panel",
		Columns: []string{"n", "f", "n >= 4f+1", "passed", "total"},
	}
	for _, c := range []struct{ n, f int }{{5, 1}, {6, 1}, {9, 2}} {
		g := graph.Complete(c.n)
		honest := byzantine.NewPhaseKing(c.f, g.Names())
		passed, total, err := attackSweep(g, func() sim.Builder { return honest }, byzantine.PhaseKingRounds(c.f), bitPatternsFor(c.n, 3), 11)
		if err != nil {
			return nil, err
		}
		pk.AddRow(c.n, c.f, c.n >= 4*c.f+1, passed, total)
	}
	res.Tables = append(res.Tables, pk)

	tc := &Table{
		Title:   "Turpin-Coan multivalued agreement under the attack panel (boolean inputs here; arbitrary strings in the unit tests)",
		Columns: []string{"n", "f", "passed", "total"},
	}
	for _, c := range []struct{ n, f int }{{4, 1}, {7, 2}} {
		g := graph.Complete(c.n)
		honest := byzantine.NewTurpinCoan(c.f, g.Names())
		passed, total, err := attackSweep(g, func() sim.Builder { return honest }, byzantine.TurpinCoanRounds(c.f), bitPatternsFor(c.n, 3), 15)
		if err != nil {
			return nil, err
		}
		tc.AddRow(c.n, c.f, passed, total)
	}
	res.Tables = append(res.Tables, tc)

	// Message complexity: EIG's traffic is exponential in f while phase
	// king's stays polynomial — the classic trade against resilience
	// (3f+1 vs 4f+1).
	mc := &Table{
		Title:   "Communication cost per fault-free run (messages / payload bytes / max payload)",
		Columns: []string{"protocol", "n", "f", "rounds", "messages", "bytes", "max payload"},
	}
	for _, p := range []struct {
		name   string
		sizes  []struct{ n, f int }
		honest func(f int, peers []string) sim.Builder
		rounds func(f int) int
	}{
		{"eig", []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}}, byzantine.NewEIG, byzantine.EIGRounds},
		{"phase-king", []struct{ n, f int }{{5, 1}, {9, 2}, {13, 3}}, byzantine.NewPhaseKing, byzantine.PhaseKingRounds},
	} {
		for _, c := range p.sizes {
			g := graph.Complete(c.n)
			inputs := make(map[string]sim.Input, c.n)
			for i, name := range g.Names() {
				inputs[name] = sim.BoolInput(i%2 == 0)
			}
			trial := sim.Trial{G: g, Inputs: inputs, Honest: p.honest(c.f, g.Names()), Rounds: p.rounds(c.f)}
			run, _, err := trial.Run(sim.FullRecording)
			if err != nil {
				return nil, err
			}
			st := sim.CollectStats(run)
			mc.AddRow(p.name, c.n, c.f, st.Rounds, st.Messages, st.Bytes, st.MaxPayload)
		}
	}
	res.Tables = append(res.Tables, mc)

	// Crossover figure for f=1: pass fraction vs n (n=3 measured via the
	// engine: impossible).
	fig := &Series{
		Title:   "Crossover at n = 3f+1 (f=1): fraction of attack configurations EIG survives",
		XLabel:  "n",
		YLabels: []string{"pass fraction"},
	}
	fig.X = append(fig.X, 3)
	appendY(fig, 0) // Theorem 1: no device survives at n = 3
	for n := 4; n <= 7; n++ {
		g := graph.Complete(n)
		honest := byzantine.NewEIG(1, g.Names())
		passed, total, err := attackSweep(g, func() sim.Builder { return honest }, byzantine.EIGRounds(1), bitPatternsFor(n, 4), 13)
		if err != nil {
			return nil, err
		}
		fig.X = append(fig.X, float64(n))
		appendY(fig, float64(passed)/float64(total))
	}
	fig.Notes = append(fig.Notes, "n=3 is 0 by Theorem 1 (every device is defeated by the hexagon argument)")
	res.Figures = append(res.Figures, fig)
	return res, nil
}

// RunE10 sweeps Dolev-routed EIG across the connectivity boundary.
func RunE10() (*Result, error) {
	res := &Result{
		ID: "E10", Name: "Tightness: Dolev routing at connectivity 2f+1",
		Paper: "context: [D] upper bound",
		Summary: "With connectivity >= 2f+1, EIG over 2f+1 vertex-disjoint paths withstands the " +
			"panel on sparse graphs; below it, either no routing exists or the engine defeats " +
			"the devices outright.",
	}
	t := &Table{
		Title:   "Agreement over Dolev routing",
		Columns: []string{"graph", "n", "conn", "f", "outcome"},
	}
	type okCase struct {
		name string
		g    *graph.Graph
		f    int
	}
	for _, c := range []okCase{
		{"Wheel(7)", graph.Wheel(7), 1},
		{"Circulant(7;1,2)", graph.Circulant(7, 1, 2), 1},
		{"Hypercube(3)", graph.Hypercube(3), 1},
		{"Circulant(9;1,2,3)", graph.Circulant(9, 1, 2, 3), 2},
	} {
		r, err := dolev.NewRouter(c.g, c.f)
		if err != nil {
			return nil, fmt.Errorf("router for %s: %w", c.name, err)
		}
		honest := dolev.Overlay(r, byzantine.NewEIG(c.f, c.g.Names()))
		passed, total, err := attackSweep(c.g, func() sim.Builder { return honest }, r.Rounds(byzantine.EIGRounds(c.f)), bitPatternsFor(c.g.N(), 2), 17)
		if err != nil {
			return nil, err
		}
		t.AddRow(c.name, c.g.N(), c.g.VertexConnectivity(), c.f,
			fmt.Sprintf("passed %d/%d attack configs", passed, total))
	}
	// Below the boundary.
	dia := graph.Diamond()
	cr, err := core.ByzantineDiamond(uniformBuilders(dia, byzantine.NewMajority(3)), "majority", 10)
	if err != nil {
		return nil, err
	}
	t.AddRow("Diamond", 4, 2, 1, fmt.Sprintf("engine: %s %s (Theorem 1)", cr.Violations[0].Link, cr.Violations[0].Condition))
	if _, err := dolev.NewRouter(graph.Ring(7), 1); err != nil {
		t.AddRow("Ring(7)", 7, 2, 1, "router refused: "+err.Error())
	}
	res.Tables = append(res.Tables, t)
	return res, nil
}

// RunE11 measures DLPSW convergence.
func RunE11() (*Result, error) {
	res := &Result{
		ID: "E11", Name: "Tightness: DLPSW approximate agreement convergence",
		Paper: "context: [DLPSW] upper bound",
		Summary: "On complete graphs with n >= 3f+1 the correct-value spread at least halves per " +
			"round, inside the correct input range, under every panel adversary.",
	}
	fig := &Series{
		Title:   "Spread of correct values vs averaging rounds (K4, f=1, equivocating fault)",
		XLabel:  "rounds",
		YLabels: []string{"measured spread", "guaranteed bound (2^-r)"},
	}
	g := graph.Complete(4)
	inputs := map[string]sim.Input{
		"p0": sim.RealInput(0), "p1": sim.RealInput(1),
		"p2": sim.RealInput(0.3), "p3": sim.RealInput(0.8),
	}
	for rounds := 1; rounds <= 10; rounds++ {
		honest := approx.NewDLPSW(1, g.Names(), rounds)
		equiv := adversary.Equivocate(honest, sim.RealInput(0), sim.RealInput(1),
			func(nb string) bool { return nb == "p0" || nb == "p1" })
		trial := sim.Trial{
			G: g, Inputs: inputs, Honest: honest,
			Faulty: map[string]sim.Builder{"p3": equiv},
			Rounds: approx.DLPSWRounds(rounds),
		}
		run, correct, err := trial.Run(sim.FullRecording)
		if err != nil {
			return nil, err
		}
		outs, err := approx.Outputs(run, correct)
		if err != nil {
			return nil, err
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range outs {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		fig.X = append(fig.X, float64(rounds))
		appendY(fig, hi-lo, math.Pow(0.5, float64(rounds)))
	}
	res.Figures = append(res.Figures, fig)

	t := &Table{
		Title:   "(ε,δ,γ) met on adequate graphs: rounds needed for ε",
		Columns: []string{"n", "f", "delta", "eps", "rounds used", "achieved"},
	}
	for _, c := range []struct {
		n, f       int
		delta, eps float64
	}{
		{4, 1, 1, 0.1},
		{7, 2, 1, 0.05},
		{10, 3, 2, 0.01},
	} {
		g := graph.Complete(c.n)
		rounds := approx.RoundsFor(c.delta, c.eps)
		honest := approx.NewDLPSW(c.f, g.Names(), rounds)
		inputs := make(map[string]sim.Input, c.n)
		for i, name := range g.Names() {
			inputs[name] = sim.RealInput(c.delta * float64(i) / float64(c.n-1))
		}
		trial := sim.Trial{G: g, Inputs: inputs, Honest: honest, Rounds: approx.DLPSWRounds(rounds)}
		run, correct, err := trial.Run(sim.FullRecording)
		if err != nil {
			return nil, err
		}
		rep := approx.CheckEDG(run, correct, c.eps, 0)
		t.AddRow(c.n, c.f, c.delta, c.eps, rounds, fmt.Sprint(rep.OK()))
	}
	res.Tables = append(res.Tables, t)

	// Substrate composition: the same DLPSW devices over Dolev routing
	// on a sparse adequate graph.
	sparse := graph.Wheel(7)
	router, err := dolev.NewRouter(sparse, 1)
	if err != nil {
		return nil, err
	}
	const iterations = 6
	honestSparse := dolev.Overlay(router, approx.NewDLPSW(1, sparse.Names(), iterations))
	inputsSparse := map[string]sim.Input{}
	for i, name := range sparse.Names() {
		inputsSparse[name] = sim.RealInput(float64(i) / 6)
	}
	equiv := adversary.Equivocate(honestSparse, sim.RealInput(0), sim.RealInput(1),
		func(nb string) bool { return nb < "w3" })
	trialSparse := sim.Trial{
		G: sparse, Inputs: inputsSparse, Honest: honestSparse,
		Faulty: map[string]sim.Builder{"w5": equiv},
		Rounds: router.Rounds(approx.DLPSWRounds(iterations)),
	}
	runSparse, correctSparse, err := trialSparse.Run(sim.FullRecording)
	if err != nil {
		return nil, err
	}
	repSparse := approx.CheckEDG(runSparse, correctSparse, 0.05, 0)
	comp := &Table{
		Title:   "Composition: DLPSW over Dolev routing on Wheel(7) (conn 3, f=1, equivocating fault)",
		Columns: []string{"graph", "stretch", "eps", "achieved"},
	}
	comp.AddRow("Wheel(7)", router.StretchFactor(), 0.05, fmt.Sprint(repSparse.OK()))
	res.Tables = append(res.Tables, comp)
	return res, nil
}

// RunE12 verifies the firing squad and weak agreement constructions on
// adequate graphs.
func RunE12() (*Result, error) {
	res := &Result{
		ID: "E12", Name: "Tightness: firing squad and weak agreement via BA",
		Paper: "context: [CDDS], [L] reductions",
		Summary: "With n >= 3f+1 the stimulus-broadcast + EIG reduction fires simultaneously at " +
			"the fixed round f+3, and full BA validity subsumes weak validity.",
	}
	t := &Table{
		Title:   "Firing squad via EIG (stimulus at one node, attack panel)",
		Columns: []string{"n", "f", "fire round", "simultaneity intact", "configs"},
	}
	for _, c := range []struct{ n, f int }{{4, 1}, {7, 2}} {
		g := graph.Complete(c.n)
		honest := firingsquad.NewViaBA(c.f, g.Names())
		inputs := make(map[string]sim.Input, c.n)
		for _, name := range g.Names() {
			inputs[name] = sim.BoolInput(name == g.Name(0))
		}
		okAll := true
		configs := 0
		for _, badNode := range g.Names() {
			for _, strat := range adversary.Panel(29) {
				trial := sim.Trial{
					G: g, Inputs: inputs, Honest: honest,
					Faulty: map[string]sim.Builder{badNode: strat.Corrupt(honest)},
					Rounds: firingsquad.Rounds(c.f) + 2,
				}
				run, correct, err := trial.Run(sim.ExecuteOpts{})
				if err != nil {
					return nil, err
				}
				if firingsquad.Check(run, correct, false, true).Agreement != nil {
					okAll = false
				}
				configs++
			}
		}
		t.AddRow(c.n, c.f, firingsquad.FireTime(c.f), fmt.Sprint(okAll), configs)
	}
	res.Tables = append(res.Tables, t)

	w := &Table{
		Title:   "Weak agreement via EIG (attack panel)",
		Columns: []string{"n", "f", "passed", "total"},
	}
	for _, c := range []struct{ n, f int }{{4, 1}, {7, 2}} {
		g := graph.Complete(c.n)
		honest := weak.NewViaBA(c.f, g.Names())
		passed, total, err := attackSweep(g, func() sim.Builder { return honest }, byzantine.EIGRounds(c.f), bitPatternsFor(c.n, 3), 31)
		if err != nil {
			return nil, err
		}
		w.AddRow(c.n, c.f, passed, total)
	}
	res.Tables = append(res.Tables, w)
	return res, nil
}

// RunE13 sweeps partition shapes for the general node bound (the
// footnote-3 collapse construction).
func RunE13() (*Result, error) {
	res := &Result{
		ID: "E13", Name: "Partition collapse: block sweeps of the node bound",
		Paper: "Section 3.1, footnote 3",
		Summary: "Collapsing each partition block to a super-node reduces the general n <= 3f case " +
			"to the triangle; every block shape yields the same three-link contradiction.",
	}
	t := &Table{
		Title:   "All partition shapes of K_n (n <= 3f) defeat EIG",
		Columns: []string{"graph", "f", "blocks", "|S|", "links", "first violation"},
	}
	type pcase struct {
		n, f    int
		a, b, c []int
	}
	cases := []pcase{
		{4, 2, []int{0}, []int{1}, []int{2, 3}},
		{4, 2, []int{0, 1}, []int{2}, []int{3}},
		{5, 2, []int{0}, []int{1, 2}, []int{3, 4}},
		{5, 2, []int{0, 1}, []int{2, 3}, []int{4}},
		{6, 2, []int{0, 1}, []int{2, 3}, []int{4, 5}},
		{6, 3, []int{0}, []int{1, 2}, []int{3, 4, 5}},
		{7, 3, []int{0, 1, 2}, []int{3, 4}, []int{5, 6}},
	}
	for _, c := range cases {
		g := graph.Complete(c.n)
		builder := byzantine.NewEIG(c.f, g.Names())
		cr, err := core.ByzantineNodes(g, c.f, c.a, c.b, c.c,
			uniformBuilders(g, builder), "eig", byzantine.EIGRounds(c.f)+2)
		if err != nil {
			return nil, err
		}
		v := cr.Violations[0]
		t.AddRow(fmt.Sprintf("K%d", c.n), c.f,
			fmt.Sprintf("%d+%d+%d", len(c.a), len(c.b), len(c.c)),
			cr.CoverSize, len(cr.Links), fmt.Sprintf("%s %s", v.Link, v.Condition))
	}
	res.Tables = append(res.Tables, t)
	return res, nil
}

// RunE14 defeats seeded-nondeterministic devices (Section 3's remark:
// nondeterminism does not escape the impossibility).
func RunE14() (*Result, error) {
	res := &Result{
		ID: "E14", Name: "Nondeterministic devices are defeated too",
		Paper: "Section 3.3 remark",
		Summary: "Treating the random seed as part of the device resolves nondeterminism into a " +
			"family of deterministic devices; the hexagon argument defeats every member.",
	}
	t := &Table{
		Title:   "Seeded majority devices (coin-flip tie-breaks) on the triangle",
		Columns: []string{"seed", "violations", "link", "condition"},
	}
	tri := graph.Triangle()
	for seed := int64(1); seed <= 10; seed++ {
		builder := byzantine.NewSeededMajority(seed, 2)
		cr, err := core.ByzantineTriangle(uniformBuilders(tri, builder), fmt.Sprintf("seeded-majority(%d)", seed), 8)
		if err != nil {
			return nil, err
		}
		v := cr.Violations[0]
		t.AddRow(seed, len(cr.Violations), v.Link, v.Condition)
	}
	res.Tables = append(res.Tables, t)
	return res, nil
}
