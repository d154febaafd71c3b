// Package timedsim is the continuous-time execution model for the FLM85
// clock synchronization results (Section 7). Nodes carry hardware clocks
// (exact rational affine functions of real time) and act only at hardware
// ticks — real times t with D(t) = kΔ — so every aspect of timing derives
// from hardware clock states. Messages are delivered instantly but are
// consumable only at receiver ticks strictly later than the send time.
//
// Because all scheduling is exact rational arithmetic and all behavior is
// clock-driven, the model satisfies the paper's Scaling axiom exactly:
// composing every hardware clock with an increasing affine h reparametrizes
// all event times by h⁻¹ and changes no tick's observable state. The
// Locality and Fault axioms hold as in the synchronous model: state
// updates depend only on local inbox contents, and scripted senders can
// replay any recorded edge behavior.
package timedsim

import (
	"context"
	"fmt"
	"math/big"
	"sort"

	"flm/internal/clockfn"
	"flm/internal/graph"
	"flm/internal/obs"
)

// Message is a delivered payload with its exact send time.
type Message struct {
	From    string
	Payload string
	SentAt  clockfn.Q
}

// Send is an outgoing payload addressed to a neighbor.
type Send struct {
	To      string
	Payload string
}

// Device is a clock-synchronization device: it acts at hardware ticks and
// exposes a logical clock that is a function of its state and the current
// hardware reading.
type Device interface {
	Init(self string, neighbors []string)
	// Tick is invoked at the device's k-th hardware tick with the exact
	// hardware reading and the messages that became consumable since the
	// previous tick (sorted by send time, then sender). The inbox slice
	// is owned by the executor and reused between ticks: devices must
	// read what they need during Tick and must not retain the slice.
	// Symmetrically, the returned Send slice is owned by the device and
	// may be a buffer it reuses on the next Tick; the executor consumes
	// it before ticking the device again.
	Tick(k int, hw clockfn.Q, inbox []Message) []Send
	// Logical returns the logical clock value for a given hardware
	// reading, using the device's current correction state.
	Logical(hw clockfn.Q) float64
	// Snapshot canonically encodes the device state.
	Snapshot() string
}

// ScriptedSend is one replayed transmission of a faulty node.
type ScriptedSend struct {
	At      clockfn.Q
	To      string
	Payload string
}

// Node configures one node: either a Device (correct) or a Script
// (faulty replay, the Fault axiom device for the timed model). Every node
// has a hardware clock.
type Node struct {
	Device Device
	Script []ScriptedSend
	Clock  clockfn.RatLinear
}

// System is a communication graph with timed nodes and a tick spacing
// Delta (in hardware-clock units). RealDelay, when non-nil and positive,
// imposes a minimum REAL-TIME transmission delay on every message. The
// paper's Scaling axiom then fails — real-time delays do not scale with
// the hardware clocks — which is exactly the weakening FLM85 names as
// making clock synchronization potentially possible on inadequate
// graphs; TestScalingAxiomBrokenByRealDelay demonstrates the failure.
// Samples are real times, ascending and none past the run's end, at
// which the run also reads every logical clock (Run.Sampled), so one run
// serves a series of measurements. Execute only reads Delta, RealDelay
// and Samples.
type System struct {
	G         *graph.Graph
	Nodes     []Node
	Delta     *big.Rat
	RealDelay *big.Rat
	Samples   []clockfn.Q
}

// TickRecord is one observed tick of one node.
type TickRecord struct {
	Index    int
	Time     clockfn.Q // real time
	HW       clockfn.Q // hardware reading (= Index * Delta)
	Snapshot string
	Logical  float64
}

// SendRecord is one observed transmission on a directed edge.
type SendRecord struct {
	At      clockfn.Q
	Payload string
}

// Run is a recorded timed system behavior.
type Run struct {
	G            *graph.Graph
	Until        clockfn.Q
	Ticks        [][]TickRecord
	Sends        map[graph.Edge][]SendRecord
	FinalLogical []float64   // logical clocks evaluated at time Until
	FinalHW      []clockfn.Q // hardware readings at time Until
	// Sampled[i] holds the logical clocks at time System.Samples[i],
	// evaluated after every event at or before it and before any later
	// one: the FinalLogical of a run to that time.
	Sampled [][]float64
}

// tickSched is one device node's tick schedule: its next tick k happens
// at the real time next = D⁻¹(hw) for the hardware reading hw = kΔ. D is
// affine, so both advance by constants, Δ and Δ/rate, exactly. ticks is
// about the number of ticks through the run's end, which sizes the
// node's records up front.
type tickSched struct {
	next, hw, step clockfn.Q
	k, ticks       int
}

// maxPresize caps the records sized up front from a tick estimate; a
// longer run grows them by appending.
const maxPresize = 1 << 16

// Execute runs the system from real time 0 through real time until
// (inclusive) and records the behavior.
//
// When a tracer is installed (internal/obs), each execution is wrapped
// in a "timedsim.execute" span recording the node count and the run's
// tick and send totals. Without one, none of that work is done.
func Execute(sys *System, until clockfn.Q) (*Run, error) {
	var sp *obs.Span
	if obs.Enabled() {
		_, sp = obs.StartSpan(context.Background(), "timedsim.execute", obs.Int("nodes", sys.G.N()))
	}
	run, err := execute(sys, until)
	if sp != nil {
		ticks, sends := 0, 0
		if run != nil {
			for _, recs := range run.Ticks {
				ticks += len(recs)
			}
			for _, recs := range run.Sends {
				sends += len(recs)
			}
		}
		sp.SetAttrs(obs.Int("ticks", ticks), obs.Int("sends", sends))
		if err != nil {
			sp.SetAttrs(obs.Str("error", err.Error()))
		}
		sp.End()
	}
	return run, err
}

// execute is the timed executor behind Execute.
func execute(sys *System, until clockfn.Q) (*Run, error) {
	g := sys.G
	if len(sys.Nodes) != g.N() {
		return nil, fmt.Errorf("timedsim: %d nodes configured for %d-node graph", len(sys.Nodes), g.N())
	}
	if sys.Delta == nil || sys.Delta.Sign() <= 0 {
		return nil, fmt.Errorf("timedsim: tick spacing must be positive")
	}
	samples := sys.Samples
	for i, at := range samples {
		if at.Cmp(until) > 0 || (i > 0 && at.Cmp(samples[i-1]) < 0) {
			return nil, fmt.Errorf("timedsim: samples must ascend to at most the run's end %s", until)
		}
	}
	run := &Run{
		G:            g,
		Until:        until,
		Ticks:        make([][]TickRecord, g.N()),
		Sends:        make(map[graph.Edge][]SendRecord),
		FinalLogical: make([]float64, g.N()),
		FinalHW:      make([]clockfn.Q, g.N()),
	}
	// sample reads every logical clock at the next sample time.
	sample := func() {
		at := samples[len(run.Sampled)]
		clocks := make([]float64, g.N())
		for u, node := range sys.Nodes {
			if node.Device != nil {
				clocks[u] = node.Device.Logical(node.Clock.At(at))
			}
		}
		run.Sampled = append(run.Sampled, clocks)
	}
	delta := clockfn.FromRat(sys.Delta)
	var realDelay clockfn.Q
	if sys.RealDelay != nil {
		realDelay = clockfn.FromRat(sys.RealDelay)
	}

	pending := make([][]Message, g.N())
	sched := make([]tickSched, g.N())
	scriptPos := make([]int, g.N())
	var inboxBuf []Message
	for u := 0; u < g.N(); u++ {
		node := sys.Nodes[u]
		if node.Clock.Rate.Sign() <= 0 {
			return nil, fmt.Errorf("timedsim: node %s lacks an increasing hardware clock", g.Name(u))
		}
		if node.Device != nil {
			node.Device.Init(g.Name(u), neighborNames(g, u))
			// Devices begin at hardware clock 0: tick k happens when the
			// hardware reads k*Delta, wherever that falls in (possibly
			// negative) real time. Anchoring to hardware rather than
			// real time is what makes the Scaling axiom hold exactly —
			// real time is unobservable in this model.
			s := tickSched{
				next: node.Clock.Inv(clockfn.Q{}),
				step: delta.Quo(node.Clock.Rate),
			}
			if span := until.Sub(s.next); span.Sign() >= 0 {
				s.ticks = int(min(span.Quo(s.step).Float64(), maxPresize)) + 1
				run.Ticks[u] = make([]TickRecord, 0, s.ticks)
			}
			sched[u] = s
		} else {
			// Scripts must be sorted by time for deterministic replay.
			script := node.Script
			for i := 1; i < len(script); i++ {
				if script[i].At.Cmp(script[i-1].At) < 0 {
					return nil, fmt.Errorf("timedsim: script for node %s not sorted by time", g.Name(u))
				}
			}
		}
	}

	for {
		// Find the earliest event: a device tick or a scripted send.
		bestNode := -1
		var best clockfn.Q
		for u := 0; u < g.N(); u++ {
			node := &sys.Nodes[u]
			var t clockfn.Q
			if node.Device != nil {
				t = sched[u].next
			} else if scriptPos[u] < len(node.Script) {
				t = node.Script[scriptPos[u]].At
			} else {
				continue
			}
			if t.Cmp(until) > 0 {
				continue
			}
			if bestNode < 0 || t.Cmp(best) < 0 {
				best, bestNode = t, u
			}
		}
		if bestNode < 0 {
			break
		}
		for len(run.Sampled) < len(samples) && samples[len(run.Sampled)].Cmp(best) < 0 {
			sample()
		}
		u := bestNode
		node := sys.Nodes[u]
		if node.Device != nil {
			s := &sched[u]
			k, now, hw := s.k, s.next, s.hw
			// Split the consumable messages off pending[u] in place and
			// sort them into the reused inbox buffer. Pending append
			// order is non-decreasing in send time, so the stable
			// insertion sort is near-linear and byte-identical to the
			// specified (send time, sender, payload) stable order.
			cut := now
			if realDelay.Sign() > 0 {
				cut = now.Sub(realDelay)
			}
			inbox := inboxBuf[:0]
			rest := pending[u][:0]
			for _, m := range pending[u] {
				if m.SentAt.Cmp(cut) < 0 {
					inbox = append(inbox, m)
				} else {
					rest = append(rest, m)
				}
			}
			pending[u] = rest
			sortInbox(inbox)
			inboxBuf = inbox[:0]
			sends := node.Device.Tick(k, hw, inbox)
			for _, snd := range sends {
				v, ok := g.Index(snd.To)
				if !ok || !g.HasEdge(u, v) {
					return nil, fmt.Errorf("timedsim: node %s sent to non-neighbor %q", g.Name(u), snd.To)
				}
				pending[v] = append(pending[v], Message{From: g.Name(u), Payload: snd.Payload, SentAt: now})
				e := graph.Edge{From: g.Name(u), To: snd.To}
				recs := run.Sends[e]
				if recs == nil { // one send a tick is the common shape
					recs = make([]SendRecord, 0, max(s.ticks-k, 1))
				}
				run.Sends[e] = append(recs, SendRecord{At: now, Payload: snd.Payload})
			}
			run.Ticks[u] = append(run.Ticks[u], TickRecord{
				Index:    k,
				Time:     now,
				HW:       hw,
				Snapshot: node.Device.Snapshot(),
				Logical:  node.Device.Logical(hw),
			})
			s.k, s.next, s.hw = k+1, now.Add(s.step), hw.Add(delta)
		} else {
			sc := node.Script[scriptPos[u]]
			scriptPos[u]++
			v, ok := g.Index(sc.To)
			if !ok || !g.HasEdge(u, v) {
				return nil, fmt.Errorf("timedsim: script for %s sends to non-neighbor %q", g.Name(u), sc.To)
			}
			pending[v] = append(pending[v], Message{From: g.Name(u), Payload: sc.Payload, SentAt: sc.At})
			e := graph.Edge{From: g.Name(u), To: sc.To}
			run.Sends[e] = append(run.Sends[e], SendRecord{At: sc.At, Payload: sc.Payload})
		}
	}

	for len(run.Sampled) < len(samples) {
		sample()
	}
	for u := 0; u < g.N(); u++ {
		node := sys.Nodes[u]
		run.FinalHW[u] = node.Clock.At(until)
		if node.Device != nil {
			run.FinalLogical[u] = node.Device.Logical(run.FinalHW[u])
		}
	}
	return run, nil
}

// sortInbox sorts an inbox into msgLess order in place: a stable
// insertion sort, which allocates nothing.
func sortInbox(inbox []Message) {
	for i := 1; i < len(inbox); i++ {
		for j := i; j > 0 && msgLess(&inbox[j], &inbox[j-1]); j-- {
			inbox[j], inbox[j-1] = inbox[j-1], inbox[j]
		}
	}
}

// msgLess is the deterministic inbox order: send time, then sender, then
// payload.
func msgLess(a, b *Message) bool {
	if c := a.SentAt.Cmp(b.SentAt); c != 0 {
		return c < 0
	}
	if a.From != b.From {
		return a.From < b.From
	}
	return a.Payload < b.Payload
}

func neighborNames(g *graph.Graph, u int) []string {
	nbs := g.Neighbors(u)
	names := make([]string, len(nbs))
	for i, v := range nbs {
		names[i] = g.Name(v)
	}
	sort.Strings(names)
	return names
}

// renamedDevice adapts a device built for a node of G to run at a node of
// a covering graph S, translating neighbor names both ways (the timed
// counterpart of the synchronous renamer). It hands the device each
// inbox in G order, sorted by G-names as the executor sorts the inbox of
// the device's image in G, however the cover's S-names sort; Locality
// then holds for devices that read their inbox in order. The translation
// buffers are reused between ticks under the Device ownership contract.
type renamedDevice struct {
	inner  Device
	toG    map[string]string
	toS    map[string]string
	gInbox []Message
	out    []Send
}

var _ Device = (*renamedDevice)(nil)

// Renamed wraps a device with an S-name/G-name translation.
func Renamed(inner Device, toG, toS map[string]string) Device {
	return &renamedDevice{inner: inner, toG: toG, toS: toS}
}

func (d *renamedDevice) Init(self string, neighbors []string) {
	// Inner device is initialized by the caller with its G-identity.
}

func (d *renamedDevice) Tick(k int, hw clockfn.Q, inbox []Message) []Send {
	gInbox := d.gInbox[:0]
	for _, m := range inbox {
		if gFrom, ok := d.toG[m.From]; ok {
			gInbox = append(gInbox, Message{From: gFrom, Payload: m.Payload, SentAt: m.SentAt})
		}
	}
	// The inbox arrives sorted under S-names; messages sent at one
	// instant may sort the other way under G-names.
	sortInbox(gInbox)
	d.gInbox = gInbox
	sends := d.inner.Tick(k, hw, gInbox)
	out := d.out[:0]
	for _, s := range sends {
		if sTo, ok := d.toS[s.To]; ok {
			out = append(out, Send{To: sTo, Payload: s.Payload})
		}
	}
	d.out = out
	return out
}

func (d *renamedDevice) Logical(hw clockfn.Q) float64 { return d.inner.Logical(hw) }
func (d *renamedDevice) Snapshot() string             { return d.inner.Snapshot() }
