package sim

import (
	"sync/atomic"
	"testing"

	"flm/internal/graph"
)

// lineInputs builds distinct inputs for the two-node line used by the
// delay tests: l0 sends "x"-facts, l1 sends "y"-facts.
func asyncLineSystem(t *testing.T, delays *DelaySchedule, rounds int) *Run {
	t.Helper()
	g := graph.Line(2)
	sys, err := NewSystem(g, gossipProtocol(g, rounds, map[string]Input{"l0": "x", "l1": "y"}))
	if err != nil {
		t.Fatal(err)
	}
	run, err := ExecuteWith(sys, rounds, ExecuteOpts{
		RecordSnapshots: true,
		RecordEdges:     true,
		Delays:          delays,
	})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestDelayedDelivery(t *testing.T) {
	// Delay l1's round-0 message to l0 by 2 extra rounds: l0 learns
	// l1=y at round 3 (send round 0 + 1 + 2) instead of round 1 —
	// because the delayed copy overwrites nothing: l1's round-1 and
	// round-2 broadcasts to l0 are delayed past it too, or the latest
	// would win. Here we delay EVERY l1->l0 message by 2, so l0 sees
	// l1's round r broadcast at round r+3.
	delays := &DelaySchedule{Rules: []DelayRule{
		{From: "l1", To: "l0", Round: 0, Extra: 2},
		{From: "l1", To: "l0", Round: 1, Extra: 2},
		{From: "l1", To: "l0", Round: 2, Extra: 2},
		{From: "l1", To: "l0", Round: 3, Extra: 2},
	}}
	run := asyncLineSystem(t, delays, 5)
	// Synchronously l0 would know l1=y at round 1; with +2 delay the
	// round-0 broadcast arrives for the round-3 step.
	if got := run.Snapshots[0][2]; got != "l0=x" {
		t.Errorf("round 2 snapshot = %q, want delayed ignorance", got)
	}
	if got := run.Snapshots[0][3]; got != "l0=x,l1=y" {
		t.Errorf("round 3 snapshot = %q, want delivery at +2", got)
	}
	// The reverse direction is untouched: l1 learns l0=x at round 1.
	if got := run.Snapshots[1][1]; got != "l0=x,l1=y" {
		t.Errorf("l1 round 1 snapshot = %q, want synchronous delivery", got)
	}
}

func TestDelayPastHorizonIsLoss(t *testing.T) {
	// Every l1->l0 message is delayed past the 4-round horizon: l0
	// never hears from l1 at all.
	rules := make([]DelayRule, 0, 4)
	for r := 0; r < 4; r++ {
		rules = append(rules, DelayRule{From: "l1", To: "l0", Round: r, Extra: 10})
	}
	run := asyncLineSystem(t, &DelaySchedule{Rules: rules}, 4)
	for r := 0; r < 4; r++ {
		if got := run.Snapshots[0][r]; got != "l0=x" {
			t.Errorf("round %d snapshot = %q, want l1 silent forever", r, got)
		}
	}
	// Edge behaviors record the wire at SEND time: l1 still sent every
	// round even though nothing arrived.
	seq, err := run.EdgeBehavior("l1", "l0")
	if err != nil {
		t.Fatal(err)
	}
	for r, p := range seq {
		if p == None {
			t.Errorf("edge l1->l0 round %d = None, want recorded send", r)
		}
	}
}

// collisionDevice sends a distinct payload each round and records every
// payload it has ever received from its single neighbor, in arrival
// order. It never decides.
type collisionDevice struct {
	self string
	got  []Payload
}

func (d *collisionDevice) Init(self string, neighbors []string, _ Input) {
	d.self = self
}

func (d *collisionDevice) Step(round int, inbox Inbox) Outbox {
	if len(inbox) > 0 && inbox[0] != None {
		d.got = append(d.got, inbox[0])
	}
	return Outbox{Payload(d.self + EncodeInt(round))}
}

func (d *collisionDevice) Snapshot() string {
	s := ""
	for _, p := range d.got {
		s += string(p) + ";"
	}
	return s
}

func (d *collisionDevice) Output() (Decision, bool) { return Decision{}, false }

func TestDelayCollisionLatestSentWins(t *testing.T) {
	// l1's round-0 message is delayed +1, landing at round 2 — the same
	// delivery round as its round-1 message. The round-1 (latest-sent)
	// payload must win, and round 1 must see nothing from l1.
	g := graph.Line(2)
	builder := func(self string, neighbors []string, input Input) Device {
		d := &collisionDevice{}
		d.Init(self, neighbors, input)
		return d
	}
	sys, err := NewSystem(g, Protocol{
		Builders: map[string]Builder{"l0": builder, "l1": builder},
		Inputs:   map[string]Input{"l0": "", "l1": ""},
	})
	if err != nil {
		t.Fatal(err)
	}
	delays := &DelaySchedule{Rules: []DelayRule{{From: "l1", To: "l0", Round: 0, Extra: 1}}}
	run, err := ExecuteWith(sys, 3, ExecuteOpts{RecordSnapshots: true, Delays: delays})
	if err != nil {
		t.Fatal(err)
	}
	// l0 heard nothing in round 1, then exactly l1's round-1 payload in
	// round 2; the round-0 payload collapsed onto the same slot and lost.
	want := "l1" + EncodeInt(1) + ";"
	if got := run.Snapshots[0][2]; got != want {
		t.Errorf("l0 heard %q, want %q (latest-sent wins)", got, want)
	}
}

func TestInertScheduleMatchesSynchronous(t *testing.T) {
	// A schedule with only Extra<=0 rules must be byte-identical to the
	// synchronous run, including its cache key.
	inert := &DelaySchedule{Rules: []DelayRule{{From: "l1", To: "l0", Round: 0, Extra: 0}}}
	a := asyncLineSystem(t, nil, 4)
	b := asyncLineSystem(t, inert, 4)
	for u := range a.Snapshots {
		for r := range a.Snapshots[u] {
			if a.Snapshots[u][r] != b.Snapshots[u][r] {
				t.Fatalf("inert schedule diverged at node %d round %d", u, r)
			}
		}
	}
}

func TestDelayScheduleChangesCacheKey(t *testing.T) {
	g := triangle(t)
	var steps atomic.Int64
	keyWith := func(d *DelaySchedule) string {
		key, ok := systemKey(countingSystem(t, g, "async", &steps), 4, ExecuteOpts{Delays: d})
		if !ok {
			t.Fatal("counting system should be content-addressed")
		}
		return key
	}
	sync := keyWith(nil)
	inert := keyWith(&DelaySchedule{Rules: []DelayRule{{From: "a", To: "b", Round: 0, Extra: 0}}})
	delayed := keyWith(&DelaySchedule{Rules: []DelayRule{{From: "a", To: "b", Round: 0, Extra: 1}}})
	delayed2 := keyWith(&DelaySchedule{Rules: []DelayRule{{From: "a", To: "b", Round: 0, Extra: 1}}})
	if sync != inert {
		t.Error("inert schedule changed the cache key")
	}
	if sync == delayed {
		t.Error("delay schedule did not separate cache keys")
	}
	if delayed != delayed2 {
		t.Error("equal delay schedules produced different cache keys")
	}
}

func TestDelayedRunDeterministicAcrossExecutions(t *testing.T) {
	g := graph.Complete(5)
	inputs := map[string]Input{}
	for i, name := range g.Names() {
		inputs[name] = Input(EncodeInt(i * 3))
	}
	delays := SeededDelays(42, g.Names(), 6, 3)
	mk := func() *Run {
		ResetRunCache()
		sys, err := NewSystem(g, gossipProtocol(g, 4, inputs))
		if err != nil {
			t.Fatal(err)
		}
		run, err := ExecuteWith(sys, 6, ExecuteOpts{RecordSnapshots: true, RecordEdges: true, Delays: delays})
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	a, b := mk(), mk()
	for u := range a.Snapshots {
		for r := range a.Snapshots[u] {
			if a.Snapshots[u][r] != b.Snapshots[u][r] {
				t.Fatalf("async run diverged at node %d round %d:\n%q\n%q",
					u, r, a.Snapshots[u][r], b.Snapshots[u][r])
			}
		}
	}
}

func TestSeededDelaysPure(t *testing.T) {
	g := graph.Complete(4)
	a := SeededDelays(7, g.Names(), 5, 2)
	b := SeededDelays(7, g.Names(), 5, 2)
	if len(a.Rules) != len(b.Rules) {
		t.Fatalf("rule counts differ: %d vs %d", len(a.Rules), len(b.Rules))
	}
	for i := range a.Rules {
		if a.Rules[i] != b.Rules[i] {
			t.Fatalf("rule %d differs: %+v vs %+v", i, a.Rules[i], b.Rules[i])
		}
	}
	if a.Empty() {
		t.Error("seeded schedule over K4x5 rounds should not be empty")
	}
	if a.MaxExtra() > 2 {
		t.Errorf("MaxExtra = %d, want <= 2", a.MaxExtra())
	}
	c := SeededDelays(8, g.Names(), 5, 2)
	same := len(a.Rules) == len(c.Rules)
	if same {
		for i := range a.Rules {
			if a.Rules[i] != c.Rules[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

func TestSeededDelaysDegenerate(t *testing.T) {
	g := graph.Complete(3)
	if s := SeededDelays(1, g.Names(), 5, 0); !s.Empty() {
		t.Error("maxExtra=0 should give the synchronous (empty) schedule")
	}
	if s := SeededDelays(1, g.Names(), 0, 3); !s.Empty() {
		t.Error("rounds=0 should give the empty schedule")
	}
	var nilSched *DelaySchedule
	if !nilSched.Empty() {
		t.Error("nil schedule should be Empty")
	}
	if nilSched.MaxExtra() != 0 {
		t.Error("nil schedule MaxExtra should be 0")
	}
}
