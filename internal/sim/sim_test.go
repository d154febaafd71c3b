package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"flm/internal/graph"
)

// gossipDevice broadcasts its input in round 0 and thereafter forwards
// everything it has heard, canonically encoded. It decides its own input
// at decideRound. It exercises message flow, snapshots, and decisions.
type gossipDevice struct {
	self        string
	neighbors   []string
	heard       map[string]bool
	input       Input
	decideRound int
	decided     bool
}

func newGossip(decideRound int) Builder {
	return func(self string, neighbors []string, input Input) Device {
		d := &gossipDevice{decideRound: decideRound}
		d.Init(self, neighbors, input)
		return d
	}
}

func (d *gossipDevice) Init(self string, neighbors []string, input Input) {
	d.self = self
	d.neighbors = append([]string(nil), neighbors...)
	d.input = input
	d.heard = map[string]bool{self + "=" + string(input): true}
}

func (d *gossipDevice) Step(round int, inbox Inbox) Outbox {
	for _, p := range inbox {
		for _, fact := range strings.Split(string(p), ",") {
			if fact != "" {
				d.heard[fact] = true
			}
		}
	}
	if round >= d.decideRound {
		d.decided = true
	}
	msg := Payload(d.factList())
	out := make(Outbox, len(d.neighbors))
	for i := range out {
		out[i] = msg
	}
	return out
}

func (d *gossipDevice) factList() string {
	facts := make([]string, 0, len(d.heard))
	for f := range d.heard {
		facts = append(facts, f)
	}
	sort.Strings(facts)
	return strings.Join(facts, ",")
}

func (d *gossipDevice) Snapshot() string { return d.factList() }

func (d *gossipDevice) Output() (Decision, bool) {
	if !d.decided {
		return Decision{}, false
	}
	return Decision{Value: string(d.input)}, true
}

func gossipProtocol(g *graph.Graph, decideRound int, inputs map[string]Input) Protocol {
	p := Protocol{Builders: map[string]Builder{}, Inputs: inputs}
	for _, name := range g.Names() {
		p.Builders[name] = newGossip(decideRound)
	}
	return p
}

func uniformInputs(g *graph.Graph, in Input) map[string]Input {
	m := make(map[string]Input, g.N())
	for _, name := range g.Names() {
		m[name] = in
	}
	return m
}

func TestExecuteDeliversNextRound(t *testing.T) {
	g := graph.Line(2)
	sys, err := NewSystem(g, gossipProtocol(g, 1, map[string]Input{"l0": "x", "l1": "y"}))
	if err != nil {
		t.Fatal(err)
	}
	run := MustExecute(sys, 3)
	// Round 0: l0 knows only itself.
	if got := run.Snapshots[0][0]; got != "l0=x" {
		t.Errorf("round 0 snapshot = %q", got)
	}
	// Round 1: l0 has received l1's round-0 broadcast.
	if got := run.Snapshots[0][1]; got != "l0=x,l1=y" {
		t.Errorf("round 1 snapshot = %q", got)
	}
	// Edge behavior: round 0 carries l0's solo knowledge.
	seq, err := run.EdgeBehavior("l0", "l1")
	if err != nil {
		t.Fatal(err)
	}
	if seq[0] != "l0=x" || seq[1] != "l0=x,l1=y" {
		t.Errorf("edge behavior = %v", seq)
	}
}

func TestExecuteIsDeterministic(t *testing.T) {
	g := graph.Complete(5)
	inputs := map[string]Input{}
	for i, name := range g.Names() {
		inputs[name] = Input(EncodeInt(i * 7))
	}
	mk := func() *Run {
		sys, err := NewSystem(g, gossipProtocol(g, 2, inputs))
		if err != nil {
			t.Fatal(err)
		}
		return MustExecute(sys, 4)
	}
	a, b := mk(), mk()
	scA, err := Extract(a, g.Names())
	if err != nil {
		t.Fatal(err)
	}
	scB, err := Extract(b, g.Names())
	if err != nil {
		t.Fatal(err)
	}
	if err := scA.EqualUnder(scB, nil, true); err != nil {
		t.Errorf("two identical systems diverged: %v", err)
	}
}

func TestExecuteRejectsNonNeighborSend(t *testing.T) {
	g := graph.Line(3) // l0-l1-l2; l0 and l2 not adjacent
	bad := func(self string, neighbors []string, input Input) Device {
		return NewReplayDevice(nil)
	}
	p := Protocol{
		Builders: map[string]Builder{
			"l0": ReplayBuilder(map[string][]Payload{"l2": {"boo"}}),
			"l1": bad, "l2": bad,
		},
		Inputs: uniformInputs(g, "0"),
	}
	sys, err := NewSystem(g, p)
	if err != nil {
		t.Fatal(err)
	}
	// ReplayDevice.Init drops non-neighbor scripts, so construct the
	// violation manually: a device with one port too many, the slot a
	// send to l2 would need.
	sys.Devices[0] = rawSender{ports: 2}
	if _, err := Execute(sys, 2); err == nil {
		t.Error("send to non-neighbor accepted")
	}
}

// rawSender sends "boo" on the given number of ports, whatever its
// degree.
type rawSender struct{ ports int }

func (r rawSender) Init(string, []string, Input) {}
func (r rawSender) Step(int, Inbox) Outbox {
	out := make(Outbox, r.ports)
	for i := range out {
		out[i] = "boo"
	}
	return out
}
func (r rawSender) Snapshot() string         { return "raw" }
func (r rawSender) Output() (Decision, bool) { return Decision{}, false }

type flipFlopDecider struct{ round int }

func (d *flipFlopDecider) Init(string, []string, Input) {}
func (d *flipFlopDecider) Step(r int, _ Inbox) Outbox   { d.round = r; return nil }
func (d *flipFlopDecider) Snapshot() string             { return EncodeInt(d.round) }
func (d *flipFlopDecider) Output() (Decision, bool) {
	return Decision{Value: EncodeInt(d.round % 2)}, true
}

func TestExecuteRejectsChangedDecision(t *testing.T) {
	g := graph.Line(1)
	sys := &System{G: g, Devices: []Device{&flipFlopDecider{}}, Inputs: []Input{"0"}}
	if _, err := Execute(sys, 3); err == nil {
		t.Error("decision change accepted")
	}
}

func TestNewSystemValidation(t *testing.T) {
	g := graph.Line(2)
	p := gossipProtocol(g, 1, uniformInputs(g, "0"))
	delete(p.Builders, "l1")
	if _, err := NewSystem(g, p); err == nil {
		t.Error("missing builder accepted")
	}
	p = gossipProtocol(g, 1, uniformInputs(g, "0"))
	delete(p.Inputs, "l0")
	if _, err := NewSystem(g, p); err == nil {
		t.Error("missing input accepted")
	}
}

func TestReplayDeviceReproducesTraffic(t *testing.T) {
	g := graph.Triangle()
	inputs := map[string]Input{"a": "1", "b": "0", "c": "0"}
	sys, err := NewSystem(g, gossipProtocol(g, 2, inputs))
	if err != nil {
		t.Fatal(err)
	}
	run := MustExecute(sys, 4)
	// Replace node a with a replay of its own traffic; b and c must see
	// a byte-identical world.
	ab, _ := run.EdgeBehavior("a", "b")
	ac, _ := run.EdgeBehavior("a", "c")
	p := gossipProtocol(g, 2, inputs)
	p.Builders["a"] = ReplayBuilder(map[string][]Payload{"b": ab, "c": ac})
	sys2, err := NewSystem(g, p)
	if err != nil {
		t.Fatal(err)
	}
	run2 := MustExecute(sys2, 4)
	for _, name := range []string{"b", "c"} {
		s1, _ := run.SnapshotsOf(name)
		s2, _ := run2.SnapshotsOf(name)
		for r := range s1 {
			if s1[r] != s2[r] {
				t.Errorf("node %s diverged at round %d under replay", name, r)
			}
		}
	}
}

// TestFaultAxiom verifies the axiom exactly as stated: behaviors of a's
// outedges recorded in two *different* runs can be exhibited
// simultaneously by one faulty device.
func TestFaultAxiom(t *testing.T) {
	g := graph.Triangle()
	mkRun := func(aInput Input) *Run {
		sys, err := NewSystem(g, gossipProtocol(g, 2, map[string]Input{"a": aInput, "b": "0", "c": "0"}))
		if err != nil {
			t.Fatal(err)
		}
		return MustExecute(sys, 4)
	}
	run0, run1 := mkRun("0"), mkRun("1")
	ab, _ := run0.EdgeBehavior("a", "b") // a's behavior toward b when a has input 0
	ac, _ := run1.EdgeBehavior("a", "c") // a's behavior toward c when a has input 1
	p := gossipProtocol(g, 2, map[string]Input{"a": "0", "b": "0", "c": "0"})
	p.Builders["a"] = ReplayBuilder(map[string][]Payload{"b": ab, "c": ac})
	sys, err := NewSystem(g, p)
	if err != nil {
		t.Fatal(err)
	}
	run := MustExecute(sys, 4)
	gotAB, _ := run.EdgeBehavior("a", "b")
	gotAC, _ := run.EdgeBehavior("a", "c")
	if err := equalPayloads(gotAB, ab); err != nil {
		t.Errorf("outedge a->b: %v", err)
	}
	if err := equalPayloads(gotAC, ac); err != nil {
		t.Errorf("outedge a->c: %v", err)
	}
}

func TestReplayDropsNonNeighborScripts(t *testing.T) {
	d := NewReplayDevice(map[string][]Payload{"far": {"x"}, "nb": {"y"}})
	d.Init("self", []string{"nb"}, "0")
	out := d.Step(0, nil)
	if len(out) != 1 {
		t.Errorf("outbox %q has %d ports, want 1: script to non-neighbor retained", out, len(out))
	}
	if len(out) == 0 || out[0] != "y" {
		t.Error("neighbor script dropped")
	}
}

func TestExtractAndEqualUnder(t *testing.T) {
	g := graph.Triangle()
	inputs := map[string]Input{"a": "0", "b": "0", "c": "1"}
	sys, err := NewSystem(g, gossipProtocol(g, 2, inputs))
	if err != nil {
		t.Fatal(err)
	}
	run := MustExecute(sys, 4)
	sc, err := Extract(run, []string{"b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Internal) != 2 { // b->c and c->b
		t.Errorf("internal edges = %d, want 2", len(sc.Internal))
	}
	if len(sc.Border) != 2 { // a->b and a->c
		t.Errorf("border edges = %d, want 2", len(sc.Border))
	}
	if err := sc.EqualUnder(sc, nil, true); err != nil {
		t.Errorf("scenario not equal to itself: %v", err)
	}
	// Different scenario must not compare equal.
	other, err := Extract(run, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.EqualUnder(other, map[string]string{"b": "a", "c": "b"}, false); err == nil {
		t.Error("distinct scenarios compared equal")
	}
}

func TestExtractValidation(t *testing.T) {
	g := graph.Triangle()
	sys, err := NewSystem(g, gossipProtocol(g, 1, uniformInputs(g, "0")))
	if err != nil {
		t.Fatal(err)
	}
	run := MustExecute(sys, 2)
	if _, err := Extract(run, []string{"zz"}); err == nil {
		t.Error("unknown node accepted")
	}
	if _, err := Extract(run, []string{"a", "a"}); err == nil {
		t.Error("duplicate node accepted")
	}
}

func TestCheckLocalityHolds(t *testing.T) {
	g := graph.Complete(4)
	inputs := map[string]Input{}
	for i, name := range g.Names() {
		inputs[name] = Input(EncodeInt(i))
	}
	sys, err := NewSystem(g, gossipProtocol(g, 2, inputs))
	if err != nil {
		t.Fatal(err)
	}
	run := MustExecute(sys, 5)
	builders := map[string]Builder{"p1": newGossip(2), "p2": newGossip(2)}
	if _, err := CheckLocality(run, []string{"p1", "p2"}, builders); err != nil {
		t.Errorf("locality axiom failed on honest run: %v", err)
	}
}

func TestCheckLocalityDetectsTampering(t *testing.T) {
	g := graph.Triangle()
	inputs := map[string]Input{"a": "0", "b": "1", "c": "0"}
	sys, err := NewSystem(g, gossipProtocol(g, 2, inputs))
	if err != nil {
		t.Fatal(err)
	}
	run := MustExecute(sys, 4)
	// Supply a builder whose device behaves differently: the replayed
	// scenario can then no longer match.
	builders := map[string]Builder{"b": newGossip(0), "c": newGossip(2)}
	if _, err := CheckLocality(run, []string{"b", "c"}, builders); err == nil {
		t.Error("tampered builder passed the locality check")
	}
}

// TestBoundedDelayOneHopPerRound verifies the Bounded-Delay Locality
// axiom with delta = 1 round: on a long line, changing only the far
// endpoint's input leaves a node at distance d identical through round
// d-1 (news needs d rounds to arrive).
func TestBoundedDelayOneHopPerRound(t *testing.T) {
	const n = 8
	g := graph.Line(n)
	mk := func(farInput Input) *Run {
		inputs := uniformInputs(g, "0")
		inputs[fmt.Sprintf("l%d", n-1)] = farInput
		sys, err := NewSystem(g, gossipProtocol(g, 1, inputs))
		if err != nil {
			t.Fatal(err)
		}
		return MustExecute(sys, n+2)
	}
	runA, runB := mk("0"), mk("9")
	for d := 1; d < n; d++ {
		name := fmt.Sprintf("l%d", n-1-d)
		div, err := PrefixEqual(runA, name, runB, name)
		if err != nil {
			t.Fatal(err)
		}
		if div != d {
			t.Errorf("node at distance %d diverged at round %d, want %d", d, div, d)
		}
	}
}

// Property: executing for more rounds never changes the prefix — runs
// are extensions, not re-rolls.
func TestExecutePrefixStability(t *testing.T) {
	g := graph.Complete(4)
	inputs := map[string]Input{}
	for i, name := range g.Names() {
		inputs[name] = Input(EncodeInt(i))
	}
	mk := func(rounds int) *Run {
		sys, err := NewSystem(g, gossipProtocol(g, 2, inputs))
		if err != nil {
			t.Fatal(err)
		}
		return MustExecute(sys, rounds)
	}
	short, long := mk(3), mk(8)
	for _, name := range g.Names() {
		div, err := PrefixEqual(short, name, long, name)
		if err != nil {
			t.Fatal(err)
		}
		if div != 3 {
			t.Errorf("node %s prefix diverged at %d, want full 3", name, div)
		}
	}
	for e, seq := range short.Edges {
		longSeq := long.Edges[e]
		for r := range seq {
			if seq[r] != longSeq[r] {
				t.Errorf("edge %v round %d differs between horizons", e, r)
			}
		}
	}
}

func TestRunAccessors(t *testing.T) {
	g := graph.Triangle()
	sys, err := NewSystem(g, gossipProtocol(g, 1, uniformInputs(g, "1")))
	if err != nil {
		t.Fatal(err)
	}
	run := MustExecute(sys, 3)
	if _, err := run.EdgeBehavior("a", "zz"); err == nil {
		t.Error("missing edge accepted")
	}
	if _, err := run.DecisionOf("zz"); err == nil {
		t.Error("missing node accepted")
	}
	if _, err := run.SnapshotsOf("zz"); err == nil {
		t.Error("missing node accepted")
	}
	d, err := run.DecisionOf("a")
	if err != nil || d.Value != "1" {
		t.Errorf("decision of a = %+v, %v", d, err)
	}
	if !strings.Contains(run.String(), "a: 1 @r1") {
		t.Errorf("run summary missing decision: %q", run.String())
	}
}

func TestCodecRoundTrips(t *testing.T) {
	for _, b := range []bool{true, false} {
		got, err := DecodeBool(EncodeBool(b))
		if err != nil || got != b {
			t.Errorf("bool %v round trip: %v %v", b, got, err)
		}
	}
	if _, err := DecodeBool("2"); err == nil {
		t.Error("bad bool accepted")
	}
	// Forms ParseFloat and Atoi read but the encoders never write, and
	// non-finite reals: a decoder that took them would read a faulty
	// node's payload as a value no honest node can send.
	for _, s := range []string{"zz", "", "0x1p3", "0x1P-2", "1_0", "+1", "1e0", ".5", "5.", "007", "Inf", "infinity", "NaN", "-0.0", "1.7976931348623157e308", " 1"} {
		if x, err := DecodeReal(s); err == nil {
			t.Errorf("DecodeReal(%q) = %v, want an error", s, x)
		}
	}
	for _, s := range []string{"1.5", "", "+1", "+3", "007", "-0", "1_0", "0x10", " 1"} {
		if n, err := DecodeInt(s); err == nil {
			t.Errorf("DecodeInt(%q) = %d, want an error", s, n)
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 8, -0.25, 0.4, 1e21, 5e-324, math.MaxFloat64} {
		if got, err := DecodeReal(EncodeReal(x)); err != nil || math.Float64bits(got) != math.Float64bits(x) {
			t.Errorf("DecodeReal(EncodeReal(%v)) = %v, %v", x, got, err)
		}
	}
	prop := func(x float64) bool {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return true
		}
		got, err := DecodeReal(EncodeReal(x))
		return err == nil && math.Float64bits(got) == math.Float64bits(x)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	propInt := func(n int) bool {
		got, err := DecodeInt(EncodeInt(n))
		return err == nil && got == n
	}
	if err := quick.Check(propInt, nil); err != nil {
		t.Error(err)
	}
}

func TestEqualPayloadsPadding(t *testing.T) {
	// Trailing silence is equal to absence.
	if err := equalPayloads([]Payload{"x"}, []Payload{"x", None, None}); err != nil {
		t.Errorf("padded sequences unequal: %v", err)
	}
	if err := equalPayloads([]Payload{"x"}, []Payload{"x", "y"}); err == nil {
		t.Error("distinct sequences equal")
	}
}
