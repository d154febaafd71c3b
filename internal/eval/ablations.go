package eval

import (
	"fmt"
	"math/big"
	"strings"

	"flm/internal/clockfn"
	"flm/internal/core"
	"flm/internal/graph"
	"flm/internal/signed"
	"flm/internal/sim"
	"flm/internal/timedsim"
	"flm/internal/weak"
)

// RunE15 mechanizes the Fault-axiom sensitivity: with per-execution
// unforgeable signatures, Dolev-Strong agreement works on the very
// triangle Theorem 1 declares hopeless, and the covering argument's
// splice fails its own Locality self-check (the replayed signatures do
// not verify in the fresh execution).
func RunE15() (*Result, error) {
	res := &Result{
		ID: "E15", Name: "Ablation: unforgeable signatures break the Fault axiom",
		Paper: "Section 2: \"When this axiom is significantly weakened (say, by adding an " +
			"unforgeable signature assumption), then consensus is possible [LSP,PSL].\"",
		Summary: "Signed (Dolev-Strong) agreement survives every attack on the triangle with " +
			"f=1 and on K5 with f=2; the hexagon splice is rejected by the engine's own " +
			"self-check because cross-execution signatures fail verification.",
	}
	t := &Table{
		Title:   "Signed agreement under the attack panel (n >= 2f+1 suffices!)",
		Columns: []string{"graph", "n", "f", "adequate unsigned", "passed", "total"},
	}
	for _, c := range []struct {
		g *graph.Graph
		f int
	}{
		{graph.Triangle(), 1},
		{graph.Complete(4), 1},
		{graph.Complete(5), 2},
	} {
		// Signature verification is execution-scoped state, so every
		// trial gets a fresh registry.
		names := c.g.Names()
		honest := func() sim.Builder { return signed.NewDolevStrong(c.f, names, signed.NewRegistry()) }
		passed, total, err := attackSweep(c.g, honest, signed.Rounds(c.f), bitPatternsFor(c.g.N(), 4), 37)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("K%d", c.g.N()), c.g.N(), c.f, fmt.Sprint(c.g.IsAdequate(c.f)), passed, total)
	}
	res.Tables = append(res.Tables, t)

	// The engine's verdict on the signed devices.
	cover := graph.HexCover()
	regS := signed.NewRegistry()
	buildersS := map[string]sim.Builder{}
	for _, name := range cover.G.Names() {
		buildersS[name] = signed.NewDolevStrong(1, cover.G.Names(), regS)
	}
	inputs := map[string]sim.Input{
		"r0": "0", "r1": "0", "r2": "0", "r3": "1", "r4": "1", "r5": "1",
	}
	inst, err := core.InstallCover(cover, buildersS, inputs)
	if err != nil {
		return nil, err
	}
	runS, err := inst.Execute(signed.Rounds(1) + 2)
	if err != nil {
		return nil, err
	}
	regG := signed.NewRegistry()
	buildersG := map[string]sim.Builder{}
	for _, name := range cover.G.Names() {
		buildersG[name] = signed.NewDolevStrong(1, cover.G.Names(), regG)
	}
	e := &Table{
		Title:   "Engine verdict: the hexagon splice against signed devices",
		Columns: []string{"scenario", "outcome"},
	}
	for _, sc := range []struct {
		name string
		u    []int
	}{
		{"E1 = {r1,r2}", []int{1, 2}},
		{"E2 = {r2,r3}", []int{2, 3}},
		{"E3 = {r3,r4}", []int{3, 4}},
	} {
		_, spliceErr := core.SpliceScenario(inst, runS, sc.u, buildersG)
		outcome := "spliced cleanly (unexpected!)"
		if spliceErr != nil && strings.Contains(spliceErr.Error(), "locality axiom self-check failed") {
			outcome = "REJECTED: replayed cross-execution signatures failed verification"
		} else if spliceErr != nil {
			outcome = "error: " + spliceErr.Error()
		}
		e.AddRow(sc.name, outcome)
	}
	e.Notes = append(e.Notes,
		"the Fault axiom's masquerade requires replaying other runs' edge behaviors verbatim; signatures make those behaviors unreproducible")
	res.Tables = append(res.Tables, e)
	return res, nil
}

// RunE16 mechanizes the delay-assumption sensitivities: footnote 4's
// zero-minimum-delay weak consensus algorithm (correct against every
// adversary, then broken by any positive minimum delay), and the Scaling
// axiom's failure under a fixed real-time delay.
func RunE16() (*Result, error) {
	res := &Result{
		ID: "E16", Name: "Ablation: delay assumptions (footnote 4 and the Scaling axiom)",
		Paper: "Section 4 footnote 4; Section 7: \"If this axiom is significantly weakened, as by " +
			"bounding the transmission delay, clock synchronization may be possible...\"",
		Summary: "With no minimum delay, weak consensus is solvable with any number of faults " +
			"(so Theorem 2 needs the Bounded-Delay axiom); with a fixed real-time delay the " +
			"timed model stops being scaling-invariant (so Theorem 8 needs the Scaling axiom).",
	}
	t := &Table{
		Title:   "Footnote 4's algorithm on the triangle (agreement intact?)",
		Columns: []string{"adversary", "min delay 0", "min delay 1/50"},
	}
	g := graph.Triangle()
	inputs := map[string]string{"a": "1", "b": "1", "c": "1"}
	strategies := map[string]weak.ZDStrategy{
		"silent": func(self string, nbs []string) []weak.ZDMessage { return nil },
		"equivocate": func(self string, nbs []string) []weak.ZDMessage {
			var out []weak.ZDMessage
			for i, nb := range nbs {
				v := "0"
				if i%2 == 0 {
					v = "1"
				}
				out = append(out, weak.ZDMessage{To: nb, Value: v, Arrive: big.NewRat(1, 2)})
			}
			return out
		},
		"late-conflict": func(self string, nbs []string) []weak.ZDMessage {
			out := []weak.ZDMessage{}
			for _, nb := range nbs {
				out = append(out, weak.ZDMessage{To: nb, Value: "1", Arrive: big.NewRat(1, 2)})
			}
			out = append(out, weak.ZDMessage{To: nbs[0], Value: "0", Arrive: big.NewRat(99, 100)})
			return out
		},
	}
	for _, name := range []string{"silent", "equivocate", "late-conflict"} {
		strat := strategies[name]
		row := []string{name}
		for _, delay := range []*big.Rat{big.NewRat(0, 1), big.NewRat(1, 50)} {
			zd, err := weak.ZeroDelayRun(g, inputs, map[string]weak.ZDStrategy{"c": strat}, delay)
			if err != nil {
				return nil, err
			}
			rep := weak.CheckZD(zd, inputs, false)
			if rep.Agreement == nil {
				row = append(row, "agreement holds")
			} else {
				row = append(row, "BROKEN: "+rep.Agreement.Error())
			}
		}
		t.AddRow(row[0], row[1], row[2])
	}
	t.Notes = append(t.Notes,
		"the detect-and-warn trick needs arbitrarily small delays; any positive minimum delay re-enables Theorem 2")
	res.Tables = append(res.Tables, t)

	// Scaling-axiom ablation in the timed simulator.
	s := &Table{
		Title:   "Scaling axiom under real-time delay (two-node beacon system, scaled 3x)",
		Columns: []string{"real delay", "scaled run identical to original"},
	}
	for _, delay := range []*big.Rat{nil, big.NewRat(3, 4)} {
		identical, err := scalingIdentical(delay)
		if err != nil {
			return nil, err
		}
		label := "0 (instant)"
		if delay != nil {
			label = delay.RatString()
		}
		s.AddRow(label, fmt.Sprint(identical))
	}
	s.Notes = append(s.Notes,
		"with instant (clock-derived) timing the Scaling axiom holds exactly; a fixed real-time delay is observable under scaling, voiding Theorem 8's construction")
	res.Tables = append(res.Tables, s)
	return res, nil
}

// scalingIdentical runs a tiny two-node timed system and its 3x-scaled
// variant and reports whether the tick-state sequences coincide.
func scalingIdentical(realDelay *big.Rat) (bool, error) {
	h := clockfn.NewRatLinear(3, 1, 0, 1)
	mk := func(scale bool) (*timedsim.Run, error) {
		g := graph.Line(2)
		sys := &timedsim.System{
			G: g,
			Nodes: []timedsim.Node{
				{Device: newBeacon(), Clock: clockfn.RatIdentity()},
				{Device: newBeacon(), Clock: clockfn.NewRatLinear(3, 2, 0, 1)},
			},
			Delta:     big.NewRat(1, 1),
			RealDelay: realDelay,
		}
		until := clockfn.NewQ(6, 1)
		if scale {
			sys.Nodes[0].Clock = sys.Nodes[0].Clock.ComposeRat(h)
			sys.Nodes[1].Clock = sys.Nodes[1].Clock.ComposeRat(h)
			until = h.InverseRat().At(until)
		}
		return timedsim.Execute(sys, until)
	}
	runA, err := mk(false)
	if err != nil {
		return false, err
	}
	runB, err := mk(true)
	if err != nil {
		return false, err
	}
	for u := range runA.Ticks {
		if len(runA.Ticks[u]) != len(runB.Ticks[u]) {
			return false, nil
		}
		for j := range runA.Ticks[u] {
			if runA.Ticks[u][j].Snapshot != runB.Ticks[u][j].Snapshot {
				return false, nil
			}
		}
	}
	return true, nil
}

// beacon is a minimal timed device for the scaling ablation.
type beacon struct {
	nbs   []string
	heard []string
}

func newBeacon() timedsim.Device { return &beacon{} }

func (b *beacon) Init(self string, neighbors []string) {
	b.nbs = append([]string(nil), neighbors...)
	b.heard = nil
}

func (b *beacon) Tick(k int, hw clockfn.Q, inbox []timedsim.Message) []timedsim.Send {
	for _, m := range inbox {
		b.heard = append(b.heard, m.From+":"+m.Payload)
	}
	out := make([]timedsim.Send, 0, len(b.nbs))
	for _, nb := range b.nbs {
		out = append(out, timedsim.Send{To: nb, Payload: fmt.Sprintf("t%d", k)})
	}
	return out
}

func (b *beacon) Logical(hw clockfn.Q) float64 { return hw.Float64() }

func (b *beacon) Snapshot() string { return fmt.Sprint(b.heard) }
