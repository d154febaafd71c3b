package signed

import (
	"strings"
	"testing"

	"flm/internal/adversary"
	"flm/internal/byzantine"
	"flm/internal/core"
	"flm/internal/graph"
	"flm/internal/sim"
)

func TestRegistryBasics(t *testing.T) {
	reg := NewRegistry()
	if reg.Verify("a", "hello") {
		t.Error("unsigned statement verified")
	}
	reg.Sign("a", "hello")
	if !reg.Verify("a", "hello") {
		t.Error("signed statement rejected")
	}
	if reg.Verify("b", "hello") {
		t.Error("wrong signer verified")
	}
	if reg.Verify("a", "hello2") {
		t.Error("wrong statement verified")
	}
}

func TestChainCodec(t *testing.T) {
	reg := NewRegistry()
	c := chain{sender: "a", value: "1"}.extend(reg, "a").extend(reg, "b")
	decoded, ok := decodeChain(reg, c.encode())
	if !ok {
		t.Fatal("valid chain rejected")
	}
	if decoded.sender != "a" || decoded.value != "1" || len(decoded.signers) != 2 {
		t.Errorf("decoded %+v", decoded)
	}
	// Tampering with the value invalidates every signature.
	if _, ok := decodeChain(reg, strings.Replace(c.encode(), "|1|", "|0|", 1)); ok {
		t.Error("value-tampered chain verified")
	}
	// A chain claiming an unsigned extension fails.
	forged := c.encode() + ",c"
	if _, ok := decodeChain(reg, forged); ok {
		t.Error("forged extension verified")
	}
	// Garbage shapes.
	for _, bad := range []string{"", "a|1", "a|x|a", "a|1|", "a|1|b", "a|1|a,a", "|1|a"} {
		if _, ok := decodeChain(reg, bad); ok {
			t.Errorf("garbage chain %q verified", bad)
		}
	}
	// A chain verified under one registry dies under another: this is
	// the property that breaks the Fault axiom.
	if _, ok := decodeChain(NewRegistry(), c.encode()); ok {
		t.Error("cross-execution chain verified")
	}
}

func signedTrial(g *graph.Graph, f, bits int, reg *Registry, faulty map[string]sim.Builder) byzantine.Trial {
	inputs := make(map[string]sim.Input, g.N())
	for i, name := range g.Names() {
		inputs[name] = sim.BoolInput(bits&(1<<uint(i)) != 0)
	}
	return byzantine.Trial{
		G:      g,
		Inputs: inputs,
		Honest: NewDolevStrong(f, g.Names(), reg),
		Faulty: faulty,
		Rounds: Rounds(f),
	}
}

func TestDolevStrongNoFaults(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		g := graph.Complete(n)
		f := (n - 1) / 2
		for bits := 0; bits < 1<<uint(n); bits++ {
			trial := signedTrial(g, f, bits, NewRegistry(), nil)
			_, _, rep, err := trial.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Errorf("n=%d f=%d bits=%b: %v", n, f, bits, rep.Err())
			}
		}
	}
}

// The headline: signed agreement works on the triangle with one
// Byzantine node — exactly what Theorem 1 forbids without signatures.
func TestDolevStrongTriangleOneFault(t *testing.T) {
	g := graph.Triangle()
	for bits := 0; bits < 8; bits++ {
		for _, badNode := range g.Names() {
			for _, strat := range adversary.Panel(3) {
				reg := NewRegistry()
				honest := NewDolevStrong(1, g.Names(), reg)
				trial := signedTrial(g, 1, bits, reg, map[string]sim.Builder{
					badNode: strat.Corrupt(honest),
				})
				trial.Honest = honest
				_, _, rep, err := trial.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !rep.OK() {
					t.Errorf("bits=%b bad=%s strat=%s: %v", bits, badNode, strat.Name, rep.Err())
				}
			}
		}
	}
}

func TestDolevStrongTwoFaults(t *testing.T) {
	g := graph.Complete(5) // n = 2f+1 with f=2
	strategies := adversary.Panel(9)
	for _, bits := range []int{0, 31, 21, 10} {
		for si, s1 := range strategies {
			s2 := strategies[(si+2)%len(strategies)]
			reg := NewRegistry()
			honest := NewDolevStrong(2, g.Names(), reg)
			trial := signedTrial(g, 2, bits, reg, map[string]sim.Builder{
				"p1": s1.Corrupt(honest),
				"p3": s2.Corrupt(honest),
			})
			trial.Honest = honest
			_, _, rep, err := trial.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Errorf("bits=%x strats=%s/%s: %v", bits, s1.Name, s2.Name, rep.Err())
			}
		}
	}
}

// A replayer armed with chains harvested from a previous execution
// cannot disturb a fresh one: the fresh registry rejects them all.
func TestCrossExecutionReplayIsHarmless(t *testing.T) {
	g := graph.Triangle()
	reg1 := NewRegistry()
	trial1 := signedTrial(g, 1, 0x7, reg1, nil)
	run1, _, _, err := trial1.Run()
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := run1.EdgeBehavior("a", "b")
	ac, _ := run1.EdgeBehavior("a", "c")

	reg2 := NewRegistry()
	honest := NewDolevStrong(1, g.Names(), reg2)
	trial2 := signedTrial(g, 1, 0x6, reg2, map[string]sim.Builder{
		"a": sim.ReplayBuilder(map[string][]sim.Payload{"b": ab, "c": ac}),
	})
	trial2.Honest = honest
	run2, correct, rep, err := trial2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("replayed stale signatures broke agreement: %v", rep.Err())
	}
	// The replayed chains must have been ignored entirely: b and c treat
	// a as silent and use the default for its instance.
	for _, name := range correct {
		d, _ := run2.DecisionOf(name)
		if d.Value != "1" {
			t.Errorf("%s decided %s; stale chains must not leak a's old input", name, d.Value)
		}
	}
}

// The impossibility engine's splice self-check must FAIL against signed
// devices: the Fault axiom (replay across behaviors) is inconsistent with
// per-execution unforgeable signatures, which is the paper's stated
// escape hatch from Theorem 1.
func TestFaultAxiomBrokenBySignatures(t *testing.T) {
	cover := graph.HexCover()
	regS := NewRegistry()
	buildersS := map[string]sim.Builder{}
	for _, name := range cover.G.Names() {
		buildersS[name] = NewDolevStrong(1, cover.G.Names(), regS)
	}
	inputs := map[string]sim.Input{
		"r0": "0", "r1": "0", "r2": "0", "r3": "1", "r4": "1", "r5": "1",
	}
	inst, err := core.InstallCover(cover, buildersS, inputs)
	if err != nil {
		t.Fatal(err)
	}
	runS, err := inst.Execute(Rounds(1) + 2)
	if err != nil {
		t.Fatal(err)
	}
	// Splice E2 = {r2, r3} into a triangle behavior where the correct
	// devices run with a FRESH registry (a genuinely new execution, as
	// reality would have it). The replayed border traffic carries
	// signatures the new registry never recorded, so the correct nodes'
	// behaviors diverge from the covering scenario and the Locality
	// self-check rejects the splice.
	regG := NewRegistry()
	buildersG := map[string]sim.Builder{}
	for _, name := range cover.G.Names() {
		buildersG[name] = NewDolevStrong(1, cover.G.Names(), regG)
	}
	if _, err := core.SpliceScenario(inst, runS, []int{2, 3}, buildersG); err == nil {
		t.Fatal("splice succeeded: the Fault axiom should be broken by unforgeable signatures")
	} else if !strings.Contains(err.Error(), "locality axiom self-check failed") {
		t.Fatalf("unexpected splice error: %v", err)
	}
}

func TestDecisionTiming(t *testing.T) {
	g := graph.Complete(4)
	trial := signedTrial(g, 1, 0xF, NewRegistry(), nil)
	trial.Rounds = Rounds(1) + 2
	run, correct, rep, err := trial.Run()
	if err != nil || !rep.OK() {
		t.Fatalf("rep=%v err=%v", rep, err)
	}
	for _, name := range correct {
		d, _ := run.DecisionOf(name)
		if d.Round != 2 { // f+1 = 2
			t.Errorf("%s decided at round %d, want 2", name, d.Round)
		}
	}
}

func TestLateInjectionRejected(t *testing.T) {
	// A chain with a single signature arriving at round 2 violates the
	// timing rule and must be ignored even if the signature is genuine.
	g := graph.Triangle()
	reg := NewRegistry()
	honest := NewDolevStrong(1, g.Names(), reg)
	// The faulty node signs late: it broadcasts a 1-signature chain only
	// in round 1 (arriving at round 2, which requires >= 2 signatures).
	late := func(self string, neighbors []string, input sim.Input) sim.Device {
		return &lateSigner{reg: reg, self: self, neighbors: neighbors}
	}
	inputs := map[string]sim.Input{"a": "0", "b": "0", "c": "1"}
	trial := byzantine.Trial{
		G: g, Inputs: inputs, Honest: honest,
		Faulty: map[string]sim.Builder{"c": late},
		Rounds: Rounds(1),
	}
	run, correct, rep, err := trial.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Termination != nil || rep.Agreement != nil {
		t.Fatalf("late injection broke agreement: %v", rep.Err())
	}
	// c's instance must have resolved to the default 0 at both correct
	// nodes (the late chain was rejected), so with a,b holding 0 the
	// decision is 0.
	for _, name := range correct {
		d, _ := run.DecisionOf(name)
		if d.Value != "0" {
			t.Errorf("%s decided %s, want 0", name, d.Value)
		}
	}
}

type lateSigner struct {
	reg       *Registry
	self      string
	neighbors []string
}

func (d *lateSigner) Init(self string, neighbors []string, input sim.Input) {}

func (d *lateSigner) Step(round int, inbox sim.Inbox) sim.Outbox {
	if round != 1 {
		return nil
	}
	c := chain{sender: d.self, value: "1"}.extend(d.reg, d.self)
	return sim.Broadcast(nil, len(d.neighbors), sim.Payload(c.encode()))
}

func (d *lateSigner) Snapshot() string             { return "late" }
func (d *lateSigner) Output() (sim.Decision, bool) { return sim.Decision{}, false }
