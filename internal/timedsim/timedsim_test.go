package timedsim

import (
	"fmt"
	"math/big"
	"testing"
	"testing/quick"

	"flm/internal/clockfn"
	"flm/internal/graph"
)

// beacon broadcasts its tick index at every tick and remembers everything
// it has heard, making behaviors easy to compare.
type beacon struct {
	self  string
	nbs   []string
	heard []string
}

var _ Device = (*beacon)(nil)

func (b *beacon) Init(self string, neighbors []string) {
	b.self = self
	b.nbs = append([]string(nil), neighbors...)
	b.heard = nil
}

func (b *beacon) Tick(k int, hw clockfn.Q, inbox []Message) []Send {
	for _, m := range inbox {
		b.heard = append(b.heard, m.From+":"+m.Payload)
	}
	out := make([]Send, 0, len(b.nbs))
	for _, nb := range b.nbs {
		out = append(out, Send{To: nb, Payload: fmt.Sprintf("t%d", k)})
	}
	return out
}

func (b *beacon) Logical(hw clockfn.Q) float64 { return hw.Float64() }

func (b *beacon) Snapshot() string { return fmt.Sprint(b.heard) }

func rat(n, d int64) clockfn.Q { return clockfn.NewQ(n, d) }

func lineSystem(clockA, clockB clockfn.RatLinear) *System {
	g := graph.Line(2)
	return &System{
		G: g,
		Nodes: []Node{
			{Device: &beacon{}, Clock: clockA},
			{Device: &beacon{}, Clock: clockB},
		},
		Delta: big.NewRat(1, 1),
	}
}

func TestExecuteTickSchedule(t *testing.T) {
	sys := lineSystem(clockfn.RatIdentity(), clockfn.NewRatLinear(2, 1, 0, 1))
	run, err := Execute(sys, rat(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 (rate 1) ticks at 0,1,2,3,4; node 1 (rate 2) at 0,0.5,...,4.
	if got := len(run.Ticks[0]); got != 5 {
		t.Errorf("node l0 ticked %d times, want 5", got)
	}
	if got := len(run.Ticks[1]); got != 9 {
		t.Errorf("node l1 ticked %d times, want 9", got)
	}
	// Hardware readings are k*Delta.
	for u := range run.Ticks {
		for j, tick := range run.Ticks[u] {
			if tick.HW.Cmp(rat(int64(j), 1)) != 0 {
				t.Errorf("node %d tick %d hw = %s", u, j, tick.HW)
			}
		}
	}
}

func TestStrictDeliveryRule(t *testing.T) {
	// Both nodes tick at integer times: a message sent at time k is
	// consumable only at the tick at k+1 (strictly later).
	sys := lineSystem(clockfn.RatIdentity(), clockfn.RatIdentity())
	run, err := Execute(sys, rat(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	// At tick 1 each node sees exactly the peer's tick-0 message.
	if run.Ticks[0][1].Snapshot != "[l1:t0]" {
		t.Errorf("tick-1 snapshot = %s", run.Ticks[0][1].Snapshot)
	}
	// At tick 0 nothing is consumable.
	if run.Ticks[0][0].Snapshot != "[]" {
		t.Errorf("tick-0 snapshot = %s", run.Ticks[0][0].Snapshot)
	}
}

func TestNegativeStartForOffsetClock(t *testing.T) {
	// Clock q = t + 2 reads 0 at real time -2: the device's first tick
	// happens before real time zero.
	sys := lineSystem(clockfn.NewRatLinear(1, 1, 2, 1), clockfn.RatIdentity())
	run, err := Execute(sys, rat(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if run.Ticks[0][0].Time.Cmp(rat(-2, 1)) != 0 {
		t.Errorf("first tick at %s, want -2", run.Ticks[0][0].Time)
	}
}

// TestScalingAxiom is the heart of the timed model: scaling every clock
// by an affine h changes event real times by h⁻¹ but no observable state.
func TestScalingAxiom(t *testing.T) {
	for _, h := range []clockfn.RatLinear{
		clockfn.NewRatLinear(3, 2, 0, 1), // rate scaling
		clockfn.NewRatLinear(1, 1, 5, 1), // offset scaling
		clockfn.NewRatLinear(2, 3, 1, 4), // both
	} {
		base := lineSystem(clockfn.NewRatLinear(1, 1, 0, 1), clockfn.NewRatLinear(3, 2, 1, 2))
		until := rat(6, 1)
		runA, err := Execute(base, until)
		if err != nil {
			t.Fatal(err)
		}
		scaled := lineSystem(
			base.Nodes[0].Clock.ComposeRat(h),
			base.Nodes[1].Clock.ComposeRat(h),
		)
		runB, err := Execute(scaled, h.InverseRat().At(until))
		if err != nil {
			t.Fatal(err)
		}
		hInv := h.InverseRat()
		for u := range runA.Ticks {
			if len(runA.Ticks[u]) != len(runB.Ticks[u]) {
				t.Fatalf("h=%s: node %d tick counts %d vs %d", h, u, len(runA.Ticks[u]), len(runB.Ticks[u]))
			}
			for j := range runA.Ticks[u] {
				a, b := runA.Ticks[u][j], runB.Ticks[u][j]
				if want := hInv.At(a.Time); want.Cmp(b.Time) != 0 {
					t.Errorf("h=%s: node %d tick %d time %s, want %s", h, u, j, b.Time, want)
				}
				if a.Snapshot != b.Snapshot {
					t.Errorf("h=%s: node %d tick %d snapshots differ", h, u, j)
				}
				if a.HW.Cmp(b.HW) != 0 {
					t.Errorf("h=%s: node %d tick %d hw differ", h, u, j)
				}
			}
		}
	}
}

// Property: the Scaling axiom holds for random rational affine h (any
// positive rate, any offset).
func TestScalingAxiomProperty(t *testing.T) {
	prop := func(rateNum, rateDen, offNum uint8) bool {
		rn := int64(rateNum%7) + 1
		rd := int64(rateDen%5) + 1
		on := int64(offNum%11) - 5
		h := clockfn.NewRatLinear(rn, rd, on, 2)
		base := lineSystem(clockfn.NewRatLinear(1, 1, 0, 1), clockfn.NewRatLinear(5, 3, 1, 3))
		until := rat(5, 1)
		runA, err := Execute(base, until)
		if err != nil {
			return false
		}
		scaled := lineSystem(
			base.Nodes[0].Clock.ComposeRat(h),
			base.Nodes[1].Clock.ComposeRat(h),
		)
		runB, err := Execute(scaled, h.InverseRat().At(until))
		if err != nil {
			return false
		}
		for u := range runA.Ticks {
			if len(runA.Ticks[u]) != len(runB.Ticks[u]) {
				return false
			}
			for j := range runA.Ticks[u] {
				if runA.Ticks[u][j].Snapshot != runB.Ticks[u][j].Snapshot {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestScalingAxiomBrokenByRealDelay is the paper's ablation: a fixed
// real-time transmission delay does NOT scale with the hardware clocks,
// so the scaled run is observably different — the Scaling axiom fails,
// and with it the whole Theorem 8 machinery (as FLM85 notes, "if this
// axiom is significantly weakened, as by bounding the transmission
// delay, clock synchronization may be possible in inadequate graphs").
func TestScalingAxiomBrokenByRealDelay(t *testing.T) {
	h := clockfn.NewRatLinear(3, 1, 0, 1) // speed everything up 3x
	mk := func(scale bool) *Run {
		sys := lineSystem(clockfn.RatIdentity(), clockfn.NewRatLinear(1, 1, 0, 1))
		sys.RealDelay = big.NewRat(3, 4) // fixed real-time delay
		until := rat(6, 1)
		if scale {
			sys.Nodes[0].Clock = sys.Nodes[0].Clock.ComposeRat(h)
			sys.Nodes[1].Clock = sys.Nodes[1].Clock.ComposeRat(h)
			until = h.InverseRat().At(until)
		}
		run, err := Execute(sys, until)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	runA, runB := mk(false), mk(true)
	same := true
	for u := range runA.Ticks {
		if len(runA.Ticks[u]) != len(runB.Ticks[u]) {
			same = false
			break
		}
		for j := range runA.Ticks[u] {
			if runA.Ticks[u][j].Snapshot != runB.Ticks[u][j].Snapshot {
				same = false
			}
		}
	}
	if same {
		t.Fatal("scaled run identical despite a real-time delay; the ablation should break the Scaling axiom")
	}
}

// TestRealDelayDefersConsumption pins the delay semantics directly.
func TestRealDelayDefersConsumption(t *testing.T) {
	sys := lineSystem(clockfn.RatIdentity(), clockfn.RatIdentity())
	sys.RealDelay = big.NewRat(3, 2) // messages take 1.5 time units
	run, err := Execute(sys, rat(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	// A message sent at time 0 is due at 1.5, consumable at the tick at
	// time 2 (not 1).
	if got := run.Ticks[0][1].Snapshot; got != "[]" {
		t.Errorf("tick-1 snapshot = %s, want empty (message still in flight)", got)
	}
	if got := run.Ticks[0][2].Snapshot; got != "[l1:t0]" {
		t.Errorf("tick-2 snapshot = %s, want [l1:t0]", got)
	}
}

// TestFaultAxiomTimed: replaying a node's recorded sends as a script
// leaves its neighbor's behavior identical.
func TestFaultAxiomTimed(t *testing.T) {
	sys := lineSystem(clockfn.RatIdentity(), clockfn.NewRatLinear(2, 1, 0, 1))
	until := rat(5, 1)
	runA, err := Execute(sys, until)
	if err != nil {
		t.Fatal(err)
	}
	var script []ScriptedSend
	for _, rec := range runA.Sends[graph.Edge{From: "l0", To: "l1"}] {
		script = append(script, ScriptedSend{At: rec.At, To: "l1", Payload: rec.Payload})
	}
	replaySys := &System{
		G: graph.Line(2),
		Nodes: []Node{
			{Script: script, Clock: clockfn.RatIdentity()},
			{Device: &beacon{}, Clock: clockfn.NewRatLinear(2, 1, 0, 1)},
		},
		Delta: big.NewRat(1, 1),
	}
	runB, err := Execute(replaySys, until)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := runA.Ticks[1], runB.Ticks[1]
	if len(ta) != len(tb) {
		t.Fatalf("tick counts differ: %d vs %d", len(ta), len(tb))
	}
	for j := range ta {
		if ta[j].Snapshot != tb[j].Snapshot {
			t.Errorf("tick %d: %q vs %q", j, ta[j].Snapshot, tb[j].Snapshot)
		}
	}
}

func TestExecuteValidation(t *testing.T) {
	g := graph.Line(2)
	if _, err := Execute(&System{G: g, Nodes: []Node{{}}, Delta: big.NewRat(1, 1)}, rat(1, 1)); err == nil {
		t.Error("node count mismatch accepted")
	}
	nodes := []Node{
		{Device: &beacon{}, Clock: clockfn.RatIdentity()},
		{Device: &beacon{}, Clock: clockfn.RatIdentity()},
	}
	if _, err := Execute(&System{G: g, Nodes: nodes, Delta: big.NewRat(0, 1)}, rat(1, 1)); err == nil {
		t.Error("zero delta accepted")
	}
	if _, err := Execute(&System{G: g, Nodes: []Node{
		{Device: &beacon{}, Clock: clockfn.RatLinear{}},
		{Device: &beacon{}, Clock: clockfn.RatIdentity()},
	}, Delta: big.NewRat(1, 1)}, rat(1, 1)); err == nil {
		t.Error("missing clock accepted")
	}
	// Unsorted script.
	if _, err := Execute(&System{G: g, Nodes: []Node{
		{Script: []ScriptedSend{{At: rat(2, 1), To: "l1", Payload: "x"}, {At: rat(1, 1), To: "l1", Payload: "y"}}, Clock: clockfn.RatIdentity()},
		{Device: &beacon{}, Clock: clockfn.RatIdentity()},
	}, Delta: big.NewRat(1, 1)}, rat(3, 1)); err == nil {
		t.Error("unsorted script accepted")
	}
	// Script to non-neighbor.
	g3 := graph.Line(3)
	if _, err := Execute(&System{G: g3, Nodes: []Node{
		{Script: []ScriptedSend{{At: rat(1, 1), To: "l2", Payload: "x"}}, Clock: clockfn.RatIdentity()},
		{Device: &beacon{}, Clock: clockfn.RatIdentity()},
		{Device: &beacon{}, Clock: clockfn.RatIdentity()},
	}, Delta: big.NewRat(1, 1)}, rat(2, 1)); err == nil {
		t.Error("script to non-neighbor accepted")
	}
	for _, samples := range [][]clockfn.Q{{rat(2, 1), rat(1, 1)}, {rat(1, 1), rat(4, 1)}} {
		sys := lineSystem(clockfn.RatIdentity(), clockfn.RatIdentity())
		sys.Samples = samples
		if _, err := Execute(sys, rat(3, 1)); err == nil {
			t.Errorf("samples %v accepted for a run to 3", samples)
		}
	}
}

func TestRenamedDeviceTranslates(t *testing.T) {
	inner := &beacon{}
	inner.Init("g", []string{"gn"})
	d := Renamed(inner, map[string]string{"sn": "gn"}, map[string]string{"gn": "sn"})
	sends := d.Tick(0, rat(0, 1), []Message{{From: "sn", Payload: "x", SentAt: rat(0, 1)}})
	if len(sends) != 1 || sends[0].To != "sn" {
		t.Errorf("sends = %v, want translated to sn", sends)
	}
	if inner.Snapshot() != "[gn:x]" {
		t.Errorf("inner heard %s, want [gn:x]", inner.Snapshot())
	}
}

// TestRenamedDeviceSortsInGOrder: the renamed device hands its device
// the inbox in the order the executor gives the device's image in G,
// even where two S-senders sort opposite to their G-images.
func TestRenamedDeviceSortsInGOrder(t *testing.T) {
	inner := &beacon{}
	inner.Init("g", []string{"a", "b"})
	d := Renamed(inner, map[string]string{"p": "b", "q": "a"}, map[string]string{"a": "q", "b": "p"})
	d.Tick(1, rat(1, 1), []Message{ // the executor's order under S-names
		{From: "p", Payload: "x", SentAt: rat(0, 1)},
		{From: "q", Payload: "y", SentAt: rat(0, 1)},
		{From: "p", Payload: "z", SentAt: rat(1, 2)},
	})
	if got, want := inner.Snapshot(), "[a:y b:x b:z]"; got != want {
		t.Errorf("inner heard %s, want %s", got, want)
	}
}
