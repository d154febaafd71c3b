package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"flm/internal/graph"
	"flm/internal/sweep"
)

// encodeRun canonically serializes everything a Run records, so two runs
// are behaviorally identical iff their encodings are byte-identical.
func encodeRun(r *Run) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds=%d\n", r.Rounds)
	for u := 0; u < r.G.N(); u++ {
		fmt.Fprintf(&b, "input %s=%s\n", r.G.Name(u), r.Inputs[u])
	}
	for u := 0; u < r.G.N(); u++ {
		fmt.Fprintf(&b, "decision %s=%q@%d\n", r.G.Name(u), r.Decisions[u].Value, r.Decisions[u].Round)
	}
	for u := 0; u < r.G.N(); u++ {
		if r.Snapshots != nil {
			fmt.Fprintf(&b, "snapshots %s=%q\n", r.G.Name(u), r.Snapshots[u])
		}
	}
	if r.Edges != nil {
		edges := make([]graph.Edge, 0, len(r.Edges))
		for e := range r.Edges {
			edges = append(edges, e)
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].From != edges[j].From {
				return edges[i].From < edges[j].From
			}
			return edges[i].To < edges[j].To
		})
		for _, e := range edges {
			fmt.Fprintf(&b, "edge %v=%q\n", e, r.Edges[e])
		}
	}
	return b.String()
}

// TestRunByteIdentical is the determinism regression guard for the
// mailbox fast path and the send-loop iteration order: the same system
// executed twice sequentially, and many times under the parallel sweep
// engine, must record byte-identical Runs.
func TestRunByteIdentical(t *testing.T) {
	g := graph.Complete(5)
	inputs := map[string]Input{}
	for i, name := range g.Names() {
		inputs[name] = Input(EncodeInt(i * 7))
	}
	mk := func() (*Run, error) {
		sys, err := NewSystem(g, gossipProtocol(g, 2, inputs))
		if err != nil {
			return nil, err
		}
		return Execute(sys, 4)
	}
	first, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	want := encodeRun(first)

	second, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeRun(second); got != want {
		t.Fatalf("sequential re-execution diverged:\n--- first ---\n%s\n--- second ---\n%s", want, got)
	}

	defer sweep.SetWorkers(sweep.SetWorkers(8))
	encodings, err := sweep.Map(16, func(int) (string, error) {
		run, err := mk()
		if err != nil {
			return "", err
		}
		return encodeRun(run), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range encodings {
		if got != want {
			t.Fatalf("parallel execution %d diverged from the sequential run", i)
		}
	}
}

// TestFastModeMatchesFullMode checks that recording options never feed
// back into execution: decisions agree bit for bit, and the fast run
// simply carries no snapshots or edges.
func TestFastModeMatchesFullMode(t *testing.T) {
	g := graph.Complete(4)
	inputs := map[string]Input{}
	for i, name := range g.Names() {
		inputs[name] = BoolInput(i%2 == 0)
	}
	mkSys := func() *System {
		sys, err := NewSystem(g, gossipProtocol(g, 2, inputs))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	full, err := ExecuteWith(mkSys(), 4, FullRecording)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := ExecuteWith(mkSys(), 4, ExecuteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		if full.Decisions[u] != fast.Decisions[u] {
			t.Errorf("node %s: full decision %+v, fast decision %+v",
				g.Name(u), full.Decisions[u], fast.Decisions[u])
		}
	}
	if fast.Snapshots != nil || fast.Edges != nil {
		t.Errorf("fast run recorded snapshots/edges: %v %v", fast.Snapshots, fast.Edges)
	}
	if _, err := fast.SnapshotsOf(g.Name(0)); err == nil {
		t.Error("SnapshotsOf on a fast run did not error")
	}
	if _, err := Extract(fast, g.Names()); err == nil {
		t.Error("Extract on a fast run did not error")
	}
}

// TestPartialRunOnDecisionError: a mid-round decision-consistency error
// must still yield a diagnosable partial state — snapshots recorded for
// ALL nodes through the failing round, not just the nodes stepped before
// the error was noticed.
func TestPartialRunOnDecisionError(t *testing.T) {
	g := graph.Line(3) // l0 (flip-flopper) - l1 - l2
	sys, err := NewSystem(g, gossipProtocol(g, 1, uniformInputs(g, "0")))
	if err != nil {
		t.Fatal(err)
	}
	sys.Devices[0] = &flipFlopDecider{} // decides "0"@0, flips to "1"@1
	run, err := Execute(sys, 4)
	if err == nil {
		t.Fatal("decision change accepted")
	}
	if !strings.Contains(err.Error(), "changed its decision") {
		t.Fatalf("unexpected error: %v", err)
	}
	if run == nil {
		t.Fatal("no partial run returned alongside the error")
	}
	// The flip happens in round 1, at node index 0 — the FIRST node of
	// the round. Every other node must still have its round-1 snapshot.
	const errRound = 1
	for u := 0; u < g.N(); u++ {
		for r := 0; r <= errRound; r++ {
			if run.Snapshots[u][r] == "" {
				t.Errorf("node %s round %d snapshot missing from partial run", g.Name(u), r)
			}
		}
	}
}

// TestPartialRunOnBadSend: an outbox whose length is not the node's
// degree is an *ExecError naming the node and round; the error also
// finishes the round before returning, and no payload from the offending
// outbox is delivered or recorded (all-or-nothing, so the partial state
// is deterministic).
func TestPartialRunOnBadSend(t *testing.T) {
	g := graph.Line(3)
	sys, err := NewSystem(g, gossipProtocol(g, 1, uniformInputs(g, "0")))
	if err != nil {
		t.Fatal(err)
	}
	sys.Devices[0] = rawSender{ports: 2} // l0 has one port; the second would reach l2
	run, err := Execute(sys, 2)
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("got %v, want an *ExecError for the wrong-length outbox", err)
	}
	if ee.Node != "l0" || ee.Round != 0 {
		t.Errorf("error attributed to %s/%d, want l0/0", ee.Node, ee.Round)
	}
	if run == nil {
		t.Fatal("no partial run returned alongside the error")
	}
	for u := 0; u < g.N(); u++ {
		if run.Snapshots[u][0] == "" {
			t.Errorf("node %s round 0 snapshot missing from partial run", g.Name(u))
		}
	}
	if seq, _ := run.EdgeBehavior("l0", "l1"); seq[0] != None {
		t.Errorf("edge l0->l1 recorded %q from the rejected outbox", seq[0])
	}
}

// TestExecuteWithNoEdgesStillValidatesSends: fast mode must keep the
// model's send validation even though edges are not recorded.
func TestExecuteWithNoEdgesStillValidatesSends(t *testing.T) {
	g := graph.Line(3)
	sys, err := NewSystem(g, gossipProtocol(g, 1, uniformInputs(g, "0")))
	if err != nil {
		t.Fatal(err)
	}
	sys.Devices[0] = rawSender{ports: 2}
	if _, err := ExecuteWith(sys, 2, ExecuteOpts{}); err == nil {
		t.Error("fast mode accepted a wrong-length outbox")
	}
}

// portProbe sends "self>neighbor" on every port in round 0 only, and
// logs every non-empty inbox slot as "round/port=payload".
type portProbe struct {
	self string
	nbs  []string
	log  []string
}

func (d *portProbe) Init(self string, neighbors []string, _ Input) {
	d.self, d.nbs = self, append([]string(nil), neighbors...)
}

func (d *portProbe) Step(round int, inbox Inbox) Outbox {
	if len(inbox) != len(d.nbs) {
		d.log = append(d.log, fmt.Sprintf("%d/inbox has %d ports", round, len(inbox)))
	}
	for i, p := range inbox {
		if p != None {
			d.log = append(d.log, fmt.Sprintf("%d/%d=%s", round, i, p))
		}
	}
	if round > 0 {
		return nil
	}
	out := make(Outbox, len(d.nbs))
	for i, nb := range d.nbs {
		out[i] = Payload(d.self + ">" + nb)
	}
	return out
}

func (d *portProbe) Snapshot() string         { return "probe" }
func (d *portProbe) Output() (Decision, bool) { return Decision{}, false }

// TestPortContract pins what a port is on a graph whose index order (p2,
// p10, p1) differs from its name order (p1, p10, p2): the builder gets
// its neighbors sorted by name, inbox port i carries the payload of the
// i-th of them, and out[i] is recorded on the edge to, and delivered
// to, that neighbor — synchronously and under a delay schedule.
func TestPortContract(t *testing.T) {
	g := graph.MustNew("p2", "p10", "p1")
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 2)
	delayed := &DelaySchedule{Rules: []DelayRule{
		{From: "p10", To: "p2", Round: 0, Extra: 2},
		{From: "p1", To: "p10", Round: 0, Extra: 1},
	}}
	extra := func(s *DelaySchedule, from, to string) int {
		if s == nil {
			return 0
		}
		for _, r := range s.Rules {
			if r.From == from && r.To == to && r.Round == 0 {
				return r.Extra
			}
		}
		return 0
	}
	for _, tc := range []struct {
		name   string
		delays *DelaySchedule
	}{{"sync", nil}, {"delayed", delayed}} {
		t.Run(tc.name, func(t *testing.T) {
			probes := map[string]*portProbe{}
			p := Protocol{Builders: map[string]Builder{}, Inputs: uniformInputs(g, "0")}
			for _, name := range g.Names() {
				p.Builders[name] = func(self string, neighbors []string, input Input) Device {
					d := &portProbe{}
					d.Init(self, neighbors, input)
					probes[self] = d
					return d
				}
			}
			sys, err := NewSystem(g, p)
			if err != nil {
				t.Fatal(err)
			}
			run, err := ExecuteWith(sys, 4, ExecuteOpts{RecordEdges: true, Delays: tc.delays})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range g.Names() {
				d := probes[name]
				if !sort.StringsAreSorted(d.nbs) {
					t.Errorf("%s: builder got neighbors %v, not sorted by name", name, d.nbs)
				}
				var want []string
				for i, nb := range d.nbs {
					want = append(want, fmt.Sprintf("%d/%d=%s>%s", 1+extra(tc.delays, nb, name), i, nb, name))
					if seq, err := run.EdgeBehavior(name, nb); err != nil || seq[0] != Payload(name+">"+nb) {
						t.Errorf("%s: out[%d] recorded on edge %s->%s as %q (%v)", name, i, name, nb, seq, err)
					}
				}
				sort.Strings(want)
				if got := strings.Join(d.log, " "); got != strings.Join(want, " ") {
					t.Errorf("%s (ports %v) received %q, want %q", name, d.nbs, got, strings.Join(want, " "))
				}
			}
		})
	}
}
