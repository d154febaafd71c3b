package eval

import (
	"fmt"
	"math/big"

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

func uniformBuilders(g *graph.Graph, b sim.Builder) map[string]sim.Builder {
	m := make(map[string]sim.Builder, g.N())
	for _, name := range g.Names() {
		m[name] = b
	}
	return m
}

// baDevicePanel is the standard panel of candidate Byzantine agreement
// devices the engine defeats, in a stable order.
func baDevicePanel(peers []string) []struct {
	Name    string
	Builder sim.Builder
} {
	return []struct {
		Name    string
		Builder sim.Builder
	}{
		{"majority", byzantine.NewMajority(2)},
		{"echo", byzantine.NewEcho(2)},
		{"own-input", byzantine.NewOwnInput(2)},
		{"const-0", byzantine.NewConstant("0", 2)},
		{"const-1", byzantine.NewConstant("1", 2)},
		{"eig", byzantine.NewEIG(1, peers)},
		{"phase-king", byzantine.NewPhaseKing(1, peers)},
		{"turpin-coan", byzantine.NewTurpinCoan(1, peers)},
	}
}

func chainRow(t *Table, device string, cr *core.ChainResult) {
	v := cr.Violations[0]
	t.AddRow(device, cr.CoverSize, len(cr.Violations), v.Link, v.Condition, v.Detail)
}

// RunE1 mechanizes the 3f+1 node bound (Theorem 1) against the device
// panel on the triangle, plus general-case partitions.
func RunE1() (*Result, error) {
	res := &Result{
		ID: "E1", Name: "Byzantine agreement needs 3f+1 nodes",
		Paper: "Theorem 1 (Section 3.1)",
		Summary: "Every candidate device installed on the hexagon covering of the triangle " +
			"is forced into a violated condition across the spliced behaviors E1,E2,E3.",
	}
	tri := graph.Triangle()
	t := &Table{
		Title:   "Triangle (n=3, f=1): per-device violated condition",
		Columns: []string{"device", "|S|", "violations", "link", "condition", "detail"},
	}
	for _, d := range baDevicePanel(tri.Names()) {
		cr, err := core.ByzantineTriangle(uniformBuilders(tri, d.Builder), d.Name, 8)
		if err != nil {
			return nil, err
		}
		chainRow(t, d.Name, cr)
	}
	res.Tables = append(res.Tables, t)

	gen := &Table{
		Title:   "General case (n <= 3f): EIG defeated via the partition covering",
		Columns: []string{"graph", "n", "f", "blocks", "|S|", "link", "condition"},
	}
	cases := []struct {
		g       *graph.Graph
		f       int
		a, b, c []int
		desc    string
	}{
		{graph.Complete(5), 2, []int{0, 1}, []int{2, 3}, []int{4}, "2+2+1"},
		{graph.Complete(6), 2, []int{0, 1}, []int{2, 3}, []int{4, 5}, "2+2+2"},
		{graph.Complete(9), 3, []int{0, 1, 2}, []int{3, 4, 5}, []int{6, 7, 8}, "3+3+3"},
	}
	for _, c := range cases {
		builder := byzantine.NewEIG(c.f, c.g.Names())
		cr, err := core.ByzantineNodes(c.g, c.f, c.a, c.b, c.c,
			uniformBuilders(c.g, builder), "eig", byzantine.EIGRounds(c.f)+2)
		if err != nil {
			return nil, err
		}
		v := cr.Violations[0]
		gen.AddRow(fmt.Sprintf("K%d", c.g.N()), c.g.N(), c.f, c.desc, cr.CoverSize, v.Link, v.Condition)
	}
	res.Tables = append(res.Tables, gen)
	return res, nil
}

// RunE2 mechanizes the 2f+1 connectivity bound (Theorem 1) on the diamond
// and a larger circulant.
func RunE2() (*Result, error) {
	res := &Result{
		ID: "E2", Name: "Byzantine agreement needs 2f+1 connectivity",
		Paper: "Theorem 1 (Section 3.2)",
		Summary: "Devices on the two-copy covering of a graph with a 2f-node cut are spliced " +
			"into S1,S2,S3; the cut set's two copies masquerade as one faulty set.",
	}
	dia := graph.Diamond()
	t := &Table{
		Title:   "Diamond (n=4, connectivity 2, f=1): per-device violated condition",
		Columns: []string{"device", "|S|", "violations", "link", "condition", "detail"},
	}
	panel := []struct {
		Name    string
		Builder sim.Builder
	}{
		{"majority", byzantine.NewMajority(3)},
		{"echo", byzantine.NewEcho(3)},
		{"own-input", byzantine.NewOwnInput(3)},
		{"const-0", byzantine.NewConstant("0", 3)},
	}
	for _, d := range panel {
		cr, err := core.ByzantineDiamond(uniformBuilders(dia, d.Builder), d.Name, 10)
		if err != nil {
			return nil, err
		}
		chainRow(t, d.Name, cr)
	}
	res.Tables = append(res.Tables, t)

	gen := &Table{
		Title:   "General case (connectivity <= 2f)",
		Columns: []string{"graph", "n", "conn", "f", "cut", "|S|", "link", "condition"},
	}
	type connCase struct {
		g      *graph.Graph
		f      int
		b, d   []int
		u, v   int
		name   string
		device sim.Builder
		rounds int
	}
	cases := []connCase{
		{graph.Ring(6), 1, []int{1}, []int{4}, 0, 2, "Ring(6)", byzantine.NewMajority(3), 10},
		{graph.Circulant(10, 1, 2), 2, []int{1, 9}, []int{2, 8}, 0, 5, "Circulant(10;1,2)",
			byzantine.NewEIG(2, graph.Circulant(10, 1, 2).Names()), byzantine.EIGRounds(2) + 4},
	}
	for _, c := range cases {
		cr, err := core.ByzantineConnectivity(c.g, c.f, c.b, c.d, c.u, c.v,
			uniformBuilders(c.g, c.device), c.name, c.rounds)
		if err != nil {
			return nil, err
		}
		v := cr.Violations[0]
		gen.AddRow(c.name, c.g.N(), c.g.VertexConnectivity(), c.f,
			fmt.Sprintf("%d+%d", len(c.b), len(c.d)), cr.CoverSize, v.Link, v.Condition)
	}
	res.Tables = append(res.Tables, gen)
	return res, nil
}

// RunE3 runs the weak agreement ring argument and plots the Lemma 3
// propagation structure.
func RunE3() (*Result, error) {
	res := &Result{
		ID: "E3", Name: "Weak agreement on the 4k-ring covering",
		Paper: "Theorem 2 + Lemma 3 (Section 4)",
		Summary: "Devices passing the fault-free unanimous runs are installed on the 4k-ring " +
			"(one semicircle input 1, the other 0); adjacent pairs splice into correct " +
			"one-fault behaviors whose agreement condition breaks where the arcs meet.",
	}
	tri := graph.Triangle()
	panel := []struct {
		Name    string
		Builder sim.Builder
	}{
		{"detect-default", weak.NewDetectDefault(3)},
		{"detect-slow", weak.NewDetectDefault(5)},
		{"via-eig", weak.NewViaBA(1, tri.Names())},
	}
	t := &Table{
		Title:   "Per-device outcome on the ring covering",
		Columns: []string{"device", "ring size", "violations", "link", "condition"},
	}
	var figureSource *core.ChainResult
	for _, d := range panel {
		cr, err := core.WeakAgreementRing(uniformBuilders(tri, d.Builder), d.Name, 16)
		if err != nil {
			return nil, err
		}
		v := cr.Violations[0]
		t.AddRow(d.Name, cr.CoverSize, len(cr.Violations), v.Link, v.Condition)
		if figureSource == nil {
			figureSource = cr
		}
	}
	res.Tables = append(res.Tables, t)

	// Lemma 3 figure: per ring node, the decision and the round at which
	// its behavior diverges from the matching unanimous base run, the
	// chain's link B0 or B1. Ring node i covers triangle node i mod 3.
	cr := figureSource
	m := cr.CoverSize
	k := m / 4
	fig := &Series{
		Title:   fmt.Sprintf("Lemma 3 on the %d-ring (k=%d): decision and divergence round per node", m, k),
		XLabel:  "ring node",
		YLabels: []string{"decision", "diverges@round", "dist to boundary"},
	}
	for i := 0; i < m; i++ {
		base := cr.Links[0].Splice.Run
		if i < 2*k {
			base = cr.Links[1].Splice.Run
		}
		name := cr.RunS.G.Name(i)
		div, err := sim.PrefixEqual(cr.RunS, name, base, tri.Name(i%3))
		if err != nil {
			return nil, err
		}
		d, _ := cr.RunS.DecisionOf(name)
		dec, _ := sim.DecodeReal(d.Value)
		// Distance to the nearest opposite-input node around the ring.
		var dist int
		if i < 2*k {
			dist = minInt(i+1, 2*k-i)
		} else {
			dist = minInt(i-2*k+1, m-i)
		}
		fig.X = append(fig.X, float64(i))
		appendY(fig, dec, float64(div), float64(dist))
	}
	fig.Notes = append(fig.Notes,
		"divergence round grows linearly with distance from the input boundary (Bounded-Delay axiom, δ = 1 round)")
	res.Figures = append(res.Figures, fig)

	// Connectivity half: the ring-of-copies covering of the diamond.
	conn := &Table{
		Title:   "Connectivity half (diamond, cut {b,d}, ring of copies)",
		Columns: []string{"device", "|S|", "violations", "first link", "condition"},
	}
	dia := graph.Diamond()
	for _, d := range []struct {
		Name    string
		Builder sim.Builder
	}{
		{"detect-default", weak.NewDetectDefault(4)},
		{"majority", byzantine.NewMajority(3)},
	} {
		cr, err := core.WeakAgreementCutRing(dia, 1, []int{1}, []int{3}, 0, 2,
			uniformBuilders(dia, d.Builder), d.Name, 20)
		if err != nil {
			return nil, err
		}
		v := cr.Violations[0]
		conn.AddRow(d.Name, cr.CoverSize, len(cr.Violations), v.Link, v.Condition)
	}
	res.Tables = append(res.Tables, conn)

	// General node bound: the ring-of-blocks covering of K6 with f=2.
	genTable := &Table{
		Title:   "General node bound (K6, f=2, blocks 2+2+2, ring of blocks)",
		Columns: []string{"device", "|S|", "violations", "first link", "condition"},
	}
	k6 := graph.Complete(6)
	for _, d := range []struct {
		Name    string
		Builder sim.Builder
	}{
		{"detect-default", weak.NewDetectDefault(3)},
		{"majority", byzantine.NewMajority(2)},
	} {
		cr, err := core.WeakAgreementNodesRing(k6, 2, []int{0, 1}, []int{2, 3}, []int{4, 5},
			uniformBuilders(k6, d.Builder), d.Name, 16)
		if err != nil {
			return nil, err
		}
		v := cr.Violations[0]
		genTable.AddRow(d.Name, cr.CoverSize, len(cr.Violations), v.Link, v.Condition)
	}
	res.Tables = append(res.Tables, genTable)
	return res, nil
}

func appendY(s *Series, ys ...float64) {
	if s.Y == nil {
		s.Y = make([][]float64, len(s.YLabels))
	}
	for i, y := range ys {
		s.Y[i] = append(s.Y[i], y)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// RunE4 runs the firing squad ring argument and plots fire rounds around
// the ring.
func RunE4() (*Result, error) {
	res := &Result{
		ID: "E4", Name: "Byzantine firing squad on the 4k-ring covering",
		Paper: "Theorem 4 (Section 5)",
		Summary: "The stimulated semicircle fires on schedule, the quiet semicircle cannot " +
			"fire before round k, and some spliced adjacent pair breaks simultaneity.",
	}
	tri := graph.Triangle()
	panel := []struct {
		Name    string
		Builder sim.Builder
	}{
		{"countdown-2", firingsquad.NewCountdown(2)},
		{"countdown-4", firingsquad.NewCountdown(4)},
		{"via-eig", firingsquad.NewViaBA(1, tri.Names())},
	}
	t := &Table{
		Title:   "Per-device outcome on the ring covering",
		Columns: []string{"device", "ring size", "violations", "link", "condition"},
	}
	var src *core.ChainResult
	for _, d := range panel {
		cr, err := core.FiringSquadRing(uniformBuilders(tri, d.Builder), d.Name, 20)
		if err != nil {
			return nil, err
		}
		v := cr.Violations[0]
		t.AddRow(d.Name, cr.CoverSize, len(cr.Violations), v.Link, v.Condition)
		if src == nil {
			src = cr
		}
	}
	res.Tables = append(res.Tables, t)

	m := src.CoverSize
	fig := &Series{
		Title:   fmt.Sprintf("Fire round per ring node (%d-ring, stimulus on nodes 0..%d)", m, m/2-1),
		XLabel:  "ring node",
		YLabels: []string{"fire round (-1 = never)"},
	}
	for i := 0; i < m; i++ {
		d, _ := src.RunS.DecisionOf(src.RunS.G.Name(i))
		fire := -1.0
		if d.Value == firingsquad.Fired {
			fire = float64(d.Round)
		}
		fig.X = append(fig.X, float64(i))
		appendY(fig, fire)
	}
	fig.Notes = append(fig.Notes, "non-constant fire rounds around the ring are exactly the broken simultaneity")
	res.Figures = append(res.Figures, fig)

	conn := &Table{
		Title:   "Connectivity half (diamond, cut {b,d}, ring of copies)",
		Columns: []string{"device", "|S|", "violations", "first link", "condition"},
	}
	dia := graph.Diamond()
	for _, d := range []struct {
		Name    string
		Builder sim.Builder
	}{
		{"countdown-2", firingsquad.NewCountdown(2)},
		{"countdown-5", firingsquad.NewCountdown(5)},
	} {
		cr, err := core.FiringSquadCutRing(dia, 1, []int{1}, []int{3}, 0, 2,
			uniformBuilders(dia, d.Builder), d.Name, 30)
		if err != nil {
			return nil, err
		}
		v := cr.Violations[0]
		conn.AddRow(d.Name, cr.CoverSize, len(cr.Violations), v.Link, v.Condition)
	}
	res.Tables = append(res.Tables, conn)

	genTable := &Table{
		Title:   "General node bound (K6, f=2, blocks 2+2+2, ring of blocks)",
		Columns: []string{"device", "|S|", "violations", "first link", "condition"},
	}
	k6 := graph.Complete(6)
	for _, d := range []struct {
		Name    string
		Builder sim.Builder
	}{
		{"countdown-2", firingsquad.NewCountdown(2)},
		{"via-eig", firingsquad.NewViaBA(2, k6.Names())},
	} {
		cr, err := core.FiringSquadNodesRing(k6, 2, []int{0, 1}, []int{2, 3}, []int{4, 5},
			uniformBuilders(k6, d.Builder), d.Name, 32)
		if err != nil {
			return nil, err
		}
		v := cr.Violations[0]
		genTable.AddRow(d.Name, cr.CoverSize, len(cr.Violations), v.Link, v.Condition)
	}
	res.Tables = append(res.Tables, genTable)
	return res, nil
}

// RunE5 mechanizes simple approximate agreement impossibility.
func RunE5() (*Result, error) {
	res := &Result{
		ID: "E5", Name: "Simple approximate agreement on the hexagon",
		Paper: "Theorem 5 (Section 6.1)",
		Summary: "Validity pins the two ends of the chain to 0 and 1, so the middle scenario's " +
			"outputs are no closer than its inputs — the strict contraction fails.",
	}
	tri := graph.Triangle()
	panel := []struct {
		Name    string
		Builder sim.Builder
	}{
		{"median", approx.NewMedian(2)},
		{"dlpsw-2", approx.NewDLPSW(1, tri.Names(), 2)},
		{"dlpsw-6", approx.NewDLPSW(1, tri.Names(), 6)},
		{"own-value", approx.NewMedian(0)},
	}
	t := &Table{
		Title:   "Per-device violated condition (triangle, f=1)",
		Columns: []string{"device", "|S|", "violations", "link", "condition", "detail"},
	}
	for _, d := range panel {
		cr, err := core.SimpleApproxTriangle(uniformBuilders(tri, d.Builder), d.Name, 12)
		if err != nil {
			return nil, err
		}
		chainRow(t, d.Name, cr)
	}
	res.Tables = append(res.Tables, t)

	conn := &Table{
		Title:   "Connectivity half (diamond, cut {b,d})",
		Columns: []string{"device", "|S|", "violations", "first link", "condition"},
	}
	dia := graph.Diamond()
	for _, d := range []struct {
		Name    string
		Builder sim.Builder
	}{
		{"median", approx.NewMedian(3)},
		{"dlpsw-4", approx.NewDLPSW(1, dia.Names(), 4)},
	} {
		cr, err := core.SimpleApproxConnectivity(dia, 1, []int{1}, []int{3}, 0, 2,
			uniformBuilders(dia, d.Builder), d.Name, 12)
		if err != nil {
			return nil, err
		}
		v := cr.Violations[0]
		conn.AddRow(d.Name, cr.CoverSize, len(cr.Violations), v.Link, v.Condition)
	}
	res.Tables = append(res.Tables, conn)
	return res, nil
}

// RunE6 runs the (ε,δ,γ) ring induction and plots measured choices
// against the Lemma 7 ceilings.
func RunE6() (*Result, error) {
	params := core.EDGParams{Eps: 0.2, Delta: 1, Gamma: 0.5}
	res := &Result{
		ID: "E6", Name: "(ε,δ,γ)-agreement induction on the (k+2)-ring",
		Paper: "Theorem 6 + Lemma 7 (Section 6.2)",
		Summary: fmt.Sprintf("ε=%v δ=%v γ=%v: validity in S0 caps node 1 at δ+γ, each agreement link adds ε, "+
			"and validity in S_k demands at least kδ-γ — jointly unsatisfiable.",
			params.Eps, params.Delta, params.Gamma),
	}
	tri := graph.Triangle()
	k, size, err := params.RingSize()
	if err != nil {
		return nil, err
	}
	panel := []struct {
		Name    string
		Builder sim.Builder
	}{
		{"median", approx.NewMedian(2)},
		{"dlpsw-4", approx.NewDLPSW(1, tri.Names(), 4)},
	}
	t := &Table{
		Title:   fmt.Sprintf("Per-device outcome (ring of %d, k=%d)", size, k),
		Columns: []string{"device", "violations", "first link", "condition", "detail"},
	}
	var src *core.ChainResult
	for _, d := range panel {
		cr, err := core.EpsilonDeltaGamma(params, uniformBuilders(tri, d.Builder), d.Name, 10)
		if err != nil {
			return nil, err
		}
		v := cr.Violations[0]
		t.AddRow(d.Name, len(cr.Violations), v.Link, v.Condition, v.Detail)
		if src == nil {
			src = cr
		}
	}
	res.Tables = append(res.Tables, t)

	ceilings, floor := core.Lemma7Bounds(params, k)
	fig := &Series{
		Title:   "Lemma 7: measured choices vs induction ceilings",
		XLabel:  "ring node i",
		YLabels: []string{"chosen value", "ceiling δ+γ+(i-1)ε", "floor at k (kδ-γ)"},
	}
	for i := 1; i <= k; i++ {
		d, _ := src.RunS.DecisionOf(src.RunS.G.Name(i))
		val, _ := sim.DecodeReal(d.Value)
		fig.X = append(fig.X, float64(i))
		fl := 0.0
		if i == k {
			fl = floor
		}
		appendY(fig, val, ceilings[i], fl)
	}
	fig.Notes = append(fig.Notes, "the ceiling at node k falls below the floor, forcing a violation somewhere in the chain")
	res.Figures = append(res.Figures, fig)

	gen := &Table{
		Title:   "General node and connectivity cases",
		Columns: []string{"case", "graph", "f", "|S|", "violations", "first link"},
	}
	k6 := graph.Complete(6)
	crN, err := core.EpsilonDeltaGammaNodes(params, k6, 2, []int{0, 1}, []int{2, 3}, []int{4, 5},
		uniformBuilders(k6, approx.NewDLPSW(2, k6.Names(), 4)), "dlpsw", 10)
	if err != nil {
		return nil, err
	}
	gen.AddRow("nodes (blocks 2+2+2)", "K6", 2, crN.CoverSize, len(crN.Violations),
		fmt.Sprintf("%s %s", crN.Violations[0].Link, crN.Violations[0].Condition))
	dia := graph.Diamond()
	crC, err := core.EpsilonDeltaGammaConnectivity(params, dia, 1, []int{1}, []int{3}, 0, 2,
		uniformBuilders(dia, approx.NewMedian(2)), "median", 10)
	if err != nil {
		return nil, err
	}
	gen.AddRow("connectivity (cut {b,d})", "Diamond", 1, crC.CoverSize, len(crC.Violations),
		fmt.Sprintf("%s %s", crC.Violations[0].Link, crC.Violations[0].Condition))
	res.Tables = append(res.Tables, gen)
	return res, nil
}

// RunE7 runs the Theorem 8 clock ring for the device panel and plots
// logical clocks against the Lemma 11 ceilings.
func RunE7() (*Result, error) {
	params := clocksync.Params{
		P:      clockfn.RatIdentity(),
		Q:      clockfn.NewRatLinear(3, 2, 0, 1),
		L:      clockfn.Linear{Rate: 1, Off: 0},
		U:      clockfn.Linear{Rate: 1, Off: 4},
		Alpha:  1.5,
		TPrime: big.NewRat(4, 1),
		Delta:  big.NewRat(1, 2),
	}
	res := &Result{
		ID: "E7", Name: "Clock synchronization on the scaled ring",
		Paper: "Theorem 8 + Lemmas 9-11 (Section 7)",
		Summary: "Hardware clocks q·h⁻ⁱ make each node fast relative to one neighbor and slow " +
			"relative to the other; agreement with the faster neighbor forces the slow end " +
			"through the upper envelope. The Lemma 9 self-check replays scaled scenarios as " +
			"real triangle runs with a scripted faulty node.",
	}
	panel := []struct {
		Name    string
		Builder clocksync.Builder
	}{
		{"trivial-lower", clocksync.NewTrivialLower(params.L)},
		{"chase-max", clocksync.NewChaseMax(params.L)},
		{"midpoint", clocksync.NewMidpoint(params.L)},
	}
	t := &Table{
		Title:   "Per-device outcome (p=t, q=1.5t, l=t, u=t+4, α=1.5, t'=4)",
		Columns: []string{"device", "k", "violations", "first scenario", "condition"},
	}
	builders := func(b clocksync.Builder) map[string]clocksync.Builder {
		return map[string]clocksync.Builder{"a": b, "b": b, "c": b}
	}
	var chase *clocksync.Result
	for _, d := range panel {
		r, err := clocksync.Theorem8(params, builders(d.Builder))
		if err != nil {
			return nil, err
		}
		v := r.Violations[0]
		t.AddRow(d.Name, r.K, len(r.Violations), v.Scenario, v.Condition)
		if d.Name == "chase-max" {
			chase = r
		}
	}
	res.Tables = append(res.Tables, t)

	fig := &Series{
		Title:   "Lemma 11 (chase-max device): logical clocks at t'' vs induction floors",
		XLabel:  "ring node i",
		YLabels: []string{"C_i(t'')", "Lemma 11 floor"},
	}
	for i, c := range chase.Logical {
		fig.X = append(fig.X, float64(i))
		floor := 0.0
		if i >= 1 && i < len(chase.Floors) {
			floor = chase.Floors[i]
		}
		appendY(fig, c, floor)
	}
	fig.Notes = append(fig.Notes, fmt.Sprintf("t'' = h^k(t') with k=%d; the last node's logical clock escapes the envelope", chase.K))
	res.Figures = append(res.Figures, fig)

	gen := &Table{
		Title:   "General node and connectivity cases (chase-max devices)",
		Columns: []string{"case", "graph", "f", "ring", "violations", "first scenario"},
	}
	k6 := graph.Complete(6)
	buildersK6 := map[string]clocksync.Builder{}
	for _, name := range k6.Names() {
		buildersK6[name] = clocksync.NewChaseMax(params.L)
	}
	genN, err := clocksync.Theorem8Nodes(params, k6, []int{0, 1}, []int{2, 3}, []int{4, 5}, 2, buildersK6)
	if err != nil {
		return nil, err
	}
	gen.AddRow("nodes (blocks 2+2+2)", "K6", 2, genN.K+2, len(genN.Violations),
		genN.Violations[0].Scenario+" "+genN.Violations[0].Condition)
	dia := graph.Diamond()
	buildersDia := map[string]clocksync.Builder{}
	for _, name := range dia.Names() {
		buildersDia[name] = clocksync.NewChaseMax(params.L)
	}
	genC, err := clocksync.Theorem8Connectivity(params, dia, []int{1}, []int{3}, 0, 2, 1, buildersDia)
	if err != nil {
		return nil, err
	}
	gen.AddRow("connectivity (cut {b,d})", "Diamond", 1, genC.K+2, len(genC.Violations),
		genC.Violations[0].Scenario+" "+genC.Violations[0].Condition)
	res.Tables = append(res.Tables, gen)
	return res, nil
}

// RunE8 instantiates the corollaries and reports the trivially-achievable
// synchronization constants.
func RunE8() (*Result, error) {
	res := &Result{
		ID: "E8", Name: "Clock corollaries: best possible sync constants",
		Paper: "Corollaries 12-15 (Section 7.1)",
		Summary: "The lower-envelope device achieves exactly l(q(t))-l(p(t)) with no " +
			"communication; claiming any constant α better is defeated by the engine.",
	}
	tPrime := big.NewRat(4, 1)
	cases := []clocksync.GridCase{
		{Name: "Cor 12 (linear envelope)", Params: clocksync.Corollary12(3, 2, 1, 0, 1, 4, 1.5, tPrime)},
		{Name: "Cor 13 (rate r=3/2, l=t)", Params: clocksync.Corollary13(3, 2, 1, 0, 1.5, tPrime)},
		{Name: "Cor 14 (offset c=2, l=t)", Params: clocksync.Corollary14(2, 1, 1, 0, 1, tPrime)},
		{Name: "Cor 15 (rate r=4, l=log2)", Params: clocksync.Corollary15(4, 1, 2.5, big.NewRat(8, 1))},
	}
	trivialForm := []string{"0.5t", "0.5t (= art-at)", "2 (= ac)", "2 (= log2 r)"} // closed forms of l(q(t))-l(p(t))
	t := &Table{
		Title:   "Per-corollary outcome against the trivial and chasing devices",
		Columns: []string{"corollary", "trivial gap", "gap@t'", "k", "trivial violations", "chase violations"},
	}
	grid, err := clocksync.EvalGrid(cases,
		[]clocksync.GridDevice{clocksync.TrivialLowerFamily(), clocksync.ChaseMaxFamily()})
	if err != nil {
		return nil, err
	}
	for i, c := range cases {
		tp, _ := c.Params.TPrime.Float64()
		triv, chase := grid[i][0], grid[i][1]
		t.AddRow(c.Name, trivialForm[i], c.Params.TrivialGap(tp), triv.K, len(triv.Violations), len(chase.Violations))
	}
	res.Tables = append(res.Tables, t)

	// Adequate-side context: on K4 (f=1, which Theorem 8 does NOT cover)
	// the trimmed-midpoint device beats the trivial gap despite a
	// scripted clock liar.
	params := clocksync.Params{
		P:      clockfn.RatIdentity(),
		Q:      clockfn.NewRatLinear(3, 2, 0, 1),
		L:      clockfn.Linear{Rate: 1},
		U:      clockfn.Linear{Rate: 1, Off: 4},
		Alpha:  1,
		TPrime: big.NewRat(4, 1),
		Delta:  big.NewRat(1, 2),
	}
	k4 := graph.Complete(4)
	clocks := []clockfn.RatLinear{
		clockfn.RatIdentity(),            // slow
		clockfn.NewRatLinear(3, 2, 0, 1), // fast
		clockfn.NewRatLinear(5, 4, 1, 4), // in between, offset
		clockfn.RatIdentity(),            // the liar's (irrelevant)
	}
	buildersK4 := map[string]clocksync.Builder{}
	for _, name := range k4.Names() {
		buildersK4[name] = clocksync.NewTrimmedMidpoint(params.L, 1)
	}
	samples, err := clocksync.MeasureAdequateSync(params, k4, clocks, buildersK4, "p3",
		clocksync.ClockLiarScript(k4, "p3", 64),
		[]*big.Rat{big.NewRat(8, 1), big.NewRat(32, 1), big.NewRat(64, 1)})
	if err != nil {
		return nil, err
	}
	adequate := &Table{
		Title:   "Adequate-side context: trimmed-midpoint sync on K4 (f=1, one clock liar)",
		Columns: []string{"t", "measured gap", "trivial gap l(q)-l(p)"},
	}
	for _, s := range samples {
		adequate.AddRow(s.T, s.MeasuredGap, s.TrivialGap)
	}
	adequate.Notes = append(adequate.Notes,
		"beating the trivial gap is only impossible on INADEQUATE graphs; K4 with f=1 is adequate and the bound does not apply")
	res.Tables = append(res.Tables, adequate)
	return res, nil
}
