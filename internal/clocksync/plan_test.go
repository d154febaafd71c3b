package clocksync

import (
	"fmt"
	"strings"
	"testing"

	"flm/internal/clockfn"
	"flm/internal/graph"
	"flm/internal/timedsim"
)

// firstSender is a valid device whose state depends on the order of its
// inbox: it broadcasts its hardware reading at every tick, keeps the
// sender of each tick's first message, and runs its logical clock at the
// lower envelope.
type firstSender struct {
	l     clockfn.Fn
	nbs   []string
	first string
}

func newFirstSender(l clockfn.Fn) Builder {
	return func(self string, neighbors []string) timedsim.Device { return &firstSender{l: l} }
}

func (d *firstSender) Init(self string, neighbors []string) {
	d.nbs, d.first = sortedNeighbors(neighbors), ""
}

func (d *firstSender) Tick(k int, hw clockfn.Q, inbox []timedsim.Message) []timedsim.Send {
	if len(inbox) > 0 {
		d.first = inbox[0].From
	}
	return broadcast(nil, d.nbs, hw.String())
}

func (d *firstSender) Logical(hw clockfn.Q) float64 { return d.l.At(hw.Float64()) }
func (d *firstSender) Snapshot() string             { return d.first }

// TestInboxOrderIndependentOfCoverNames: a device that reads its inbox in
// order behaves on the cover as its image does in G, wherever two
// neighbors send at one instant and their S-names sort opposite to their
// G-names, so the Lemma 9 self-check passes. At α = 0.33 the triangle
// ring has k = 19 and 21 nodes; the triangle named a, a-b, c gives
// "a-b.0" < "a.0" but "a" < "a-b".
func TestInboxOrderIndependentOfCoverNames(t *testing.T) {
	l := clockfn.Linear{Rate: 1}
	res, err := Theorem8(stdParams(0.33), triBuilders(newFirstSender(l)))
	if err != nil {
		t.Fatalf("triangle ring: %v", err)
	}
	if res.K != 19 {
		t.Errorf("triangle ring: k = %d, want 19", res.K)
	}
	g := graph.CompleteNamed("a", "a-b", "c")
	if _, err := Theorem8Nodes(stdParams(1.5), g, []int{0}, []int{1}, []int{2}, 1, uniform(g, newFirstSender(l))); err != nil {
		t.Fatalf("renamed triangle: %v", err)
	}
}

// TestLemma9SelfCheckCatchesWrongRuns: for one correct S-node of each
// re-executed scenario, a covering run with one recorded value changed —
// a tick's time, hardware reading or snapshot, or the payload of a send
// into the scenario across its border — fails the Lemma 9 self-check,
// on the triangle ring, a block ring and a cut ring.
func TestLemma9SelfCheckCatchesWrongRuns(t *testing.T) {
	params := stdParams(1.5)
	k6, dia := graph.Complete(6), graph.Diamond()
	for _, c := range []struct {
		name string
		g    *graph.Graph
		plan func() (*plan, error)
	}{
		{"triangle ring", graph.Triangle(), func() (*plan, error) { return trianglePlan(params) }},
		{"K6 block ring", k6, func() (*plan, error) {
			return blockRing(params, k6, 2, []int{0, 1}, []int{2, 3}, []int{4, 5})
		}},
		{"diamond cut ring", dia, func() (*plan, error) {
			return cutRing(params, dia, 1, []int{1}, []int{3}, 0, 2)
		}},
	} {
		p, err := c.plan()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		builders := uniform(c.g, NewChaseMax(params.L))
		runS, err := p.execute(builders)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s := p.cover.S
		for _, sc := range p.selfChecked() {
			if err := p.lemma9(builders, runS, sc); err != nil {
				t.Fatalf("%s %s: the true run fails: %v", c.name, sc.name, err)
			}
			// The first member with a neighbor outside the scenario, and
			// the first send it receives from there.
			in := map[int]bool{}
			for _, u := range sc.u {
				in[u] = true
			}
			var node int
			var border []timedsim.SendRecord
			for _, u := range sc.u {
				for _, nb := range s.Neighbors(u) {
					if !in[nb] && border == nil {
						node, border = u, runS.Sends[graph.Edge{From: s.Name(nb), To: s.Name(u)}]
					}
				}
			}
			if len(border) == 0 {
				t.Fatalf("%s %s: no border traffic", c.name, sc.name)
			}
			tick := &runS.Ticks[node][3]
			for _, m := range []struct {
				name   string
				mutate func() (undo func())
			}{
				{"tick time", func() func() {
					old := tick.Time
					tick.Time = old.Add(clockfn.NewQ(1, 4))
					return func() { tick.Time = old }
				}},
				{"hardware reading", func() func() {
					old := tick.HW
					tick.HW = old.Add(clockfn.NewQ(1, 2))
					return func() { tick.HW = old }
				}},
				{"snapshot", func() func() {
					old := tick.Snapshot
					tick.Snapshot = old + "x"
					return func() { tick.Snapshot = old }
				}},
				{"border payload", func() func() {
					old := border[0].Payload
					border[0].Payload = "1000"
					return func() { border[0].Payload = old }
				}},
			} {
				undo := m.mutate()
				err := p.lemma9(builders, runS, sc)
				undo()
				if err == nil {
					t.Errorf("%s %s: a wrong %s at %s passed the self-check", c.name, sc.name, m.name, s.Name(node))
				}
			}
		}
	}
}

// TestPlanRejectsOversizedFaultySets: a scenario with more than f faulty
// G-nodes lies outside the fault model, and the plan is refused before
// anything executes.
func TestPlanRejectsOversizedFaultySets(t *testing.T) {
	params := stdParams(1.5)
	g := graph.Circulant(10, 1, 2) // the cut {1,9} ∪ {2,8} separates 0 from 5
	if _, err := cutRing(params, g, 2, []int{1, 9}, []int{2, 8}, 0, 5); err != nil {
		t.Fatalf("valid cut rejected: %v", err)
	}
	if _, err := cutRing(params, g, 1, []int{1, 9}, []int{2, 8}, 0, 5); err == nil {
		t.Error("cut halves of two nodes accepted at f=1")
	}
	if _, err := cutRing(params, g, 2, []int{1, 9, 3}, []int{2, 8}, 0, 5); err == nil {
		t.Error("b half of three nodes accepted at f=2")
	}
}

// TestResultStringLabelsRingNodes: String counts the ring's positions
// and its S-nodes separately and names each S-node's line, on the
// triangle ring, the K6 block ring and the diamond cut ring, where the
// S-nodes outnumber the positions.
func TestResultStringLabelsRingNodes(t *testing.T) {
	params := stdParams(1.5)
	chase := NewChaseMax(params.L)
	k6, dia := graph.Complete(6), graph.Diamond()
	for _, c := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"triangle", func() (*Result, error) { return Theorem8(params, triBuilders(chase)) }},
		{"K6 blocks", func() (*Result, error) {
			return Theorem8Nodes(params, k6, []int{0, 1}, []int{2, 3}, []int{4, 5}, 2, uniform(k6, chase))
		}},
		{"diamond cut", func() (*Result, error) {
			return Theorem8Connectivity(params, dia, []int{1}, []int{3}, 0, 2, 1, uniform(dia, chase))
		}},
	} {
		r, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		n := r.Run.G.N()
		lines := strings.Split(r.String(), "\n")
		head := fmt.Sprintf("ring of %d positions and %d nodes, k=%d", r.K+2, n, r.K)
		if !strings.HasSuffix(lines[0], head) {
			t.Errorf("%s: header %q, want it to end in %q", c.name, lines[0], head)
		}
		for i := 0; i < n; i++ {
			want := fmt.Sprintf("  node %s: C(t'') = %.6f", r.Run.G.Name(i), r.Logical[i])
			if lines[1+i] != want {
				t.Errorf("%s: line %d = %q, want %q", c.name, 1+i, lines[1+i], want)
			}
		}
		if got := lines[1+n]; len(r.Violations) > 0 && !strings.HasPrefix(got, "  ** ") {
			t.Errorf("%s: line after the nodes = %q, want the first violation", c.name, got)
		}
		r.Run = nil
		if got, want := strings.Split(r.String(), "\n")[n], fmt.Sprintf("  node %d: C(t'') = %.6f", n-1, r.Logical[n-1]); got != want {
			t.Errorf("%s without a run: last node line %q, want %q", c.name, got, want)
		}
	}
}
