// Package clocksync implements FLM85 Section 7: clock synchronization
// devices (the trivial lower-envelope clock, a chase-the-fastest clock,
// and a midpoint-averaging clock), the "nontrivial synchronization"
// conditions, and the mechanized Theorem 8 argument — the ring covering
// with hardware clocks q∘h⁻ⁱ in which any device that beats the trivial
// synchronization l(q(t))−l(p(t)) by a constant α must violate either the
// agreement bound or the envelope condition.
package clocksync

import (
	"sort"
	"strconv"

	"flm/internal/clockfn"
	"flm/internal/timedsim"
)

// Builder constructs a fresh synchronization device for a named node.
type Builder func(self string, neighbors []string) timedsim.Device

// sortedNeighbors copies and sorts a neighbor list, skipping the sort
// when the caller already handed it over in order (the common case:
// devices are re-Init'd with pre-sorted lists on every trial).
func sortedNeighbors(neighbors []string) []string {
	out := append([]string(nil), neighbors...)
	if !sort.StringsAreSorted(out) {
		sort.Strings(out)
	}
	return out
}

// trivialDevice runs its logical clock at the lower envelope of its
// hardware clock: C(t) = l(D(t)). The paper proves this no-communication
// strategy is optimal on inadequate graphs: it synchronizes to exactly
// l(q(t)) - l(p(t)) and nothing can do better by any constant.
type trivialDevice struct {
	l clockfn.Fn
}

var _ timedsim.Device = (*trivialDevice)(nil)

// NewTrivialLower returns a builder for lower-envelope devices.
func NewTrivialLower(l clockfn.Fn) Builder {
	return func(self string, neighbors []string) timedsim.Device {
		return &trivialDevice{l: l}
	}
}

func (d *trivialDevice) Init(self string, neighbors []string) {}

func (d *trivialDevice) Tick(k int, hw clockfn.Q, inbox []timedsim.Message) []timedsim.Send {
	return nil
}

func (d *trivialDevice) Logical(hw clockfn.Q) float64 { return d.l.At(hw.Float64()) }

func (d *trivialDevice) Snapshot() string { return "trivial" }

// chaseDevice broadcasts its hardware reading at every tick and keeps its
// logical clock at l(hw + ahead), where ahead is the largest lead it has
// ever observed a neighbor to have. Synchronizing with the fastest
// neighbor is exactly the behavior Theorem 8's induction exploits: around
// the ring each node believes its predecessor is ahead, and the
// accumulated lead blows through the upper envelope.
type chaseDevice struct {
	self  string
	nbs   []string
	l     clockfn.Fn
	ahead clockfn.Q
	out   []timedsim.Send // reused outbox (consumed before the next Tick)
	snap  string          // last Snapshot; "" once Init or Tick changes ahead
}

var _ timedsim.Device = (*chaseDevice)(nil)

// NewChaseMax returns a builder for chase-the-fastest devices.
func NewChaseMax(l clockfn.Fn) Builder {
	return func(self string, neighbors []string) timedsim.Device {
		d := &chaseDevice{l: l}
		d.Init(self, neighbors)
		return d
	}
}

func (d *chaseDevice) Init(self string, neighbors []string) {
	d.self = self
	d.nbs = sortedNeighbors(neighbors)
	d.ahead = clockfn.Q{}
	d.snap = ""
}

func (d *chaseDevice) Tick(k int, hw clockfn.Q, inbox []timedsim.Message) []timedsim.Send {
	for _, m := range inbox {
		reported, ok := clockfn.ParseQ(m.Payload)
		if !ok {
			continue
		}
		// The neighbor's reading was taken at its send time, which is
		// earlier than now; treating it as current only underestimates
		// the lead, keeping the device conservative.
		if lead := reported.Sub(hw); lead.Cmp(d.ahead) > 0 {
			d.ahead = lead
			d.snap = ""
		}
	}
	payload := hw.Add(d.ahead).String() // one encoding shared by every neighbor
	out := d.out[:0]
	for _, nb := range d.nbs {
		out = append(out, timedsim.Send{To: nb, Payload: payload})
	}
	d.out = out
	return out
}

func (d *chaseDevice) Logical(hw clockfn.Q) float64 { return d.l.At(hw.Add(d.ahead).Float64()) }

// Snapshot encodes the state once per change of the lead; the lead
// settles early in a run, so most ticks repeat the string.
func (d *chaseDevice) Snapshot() string {
	if d.snap == "" {
		d.snap = "chase(ahead=" + d.ahead.String() + ")"
	}
	return d.snap
}

// trimmedDevice is the fault-tolerant variant: it moves its correction
// halfway toward the MEDIAN of its neighbors' last readings after
// discarding the f most extreme on each side, so up to f Byzantine
// neighbors cannot drag it outside the correct readings' range. On
// adequate graphs this beats the trivial l(q)-l(p) synchronization —
// which Theorem 8 only forbids on inadequate ones.
type trimmedDevice struct {
	self     string
	nbs      []string
	l        clockfn.Fn
	f        int
	corr     clockfn.Reg
	last     map[string]*clockfn.Reg
	hw       clockfn.Reg     // hardware-reading register
	own      clockfn.Reg     // corrected-reading scratch
	adj      clockfn.Reg     // correction-step scratch
	readings []*clockfn.Reg  // reused per-tick sort buffer
	out      []timedsim.Send // reused outbox (consumed before the next Tick)
	enc      []byte          // reused payload and Snapshot encoding buffer
}

var _ timedsim.Device = (*trimmedDevice)(nil)

// NewTrimmedMidpoint returns a builder for trimmed-median averaging
// devices tolerating f Byzantine neighbors.
func NewTrimmedMidpoint(l clockfn.Fn, f int) Builder {
	return func(self string, neighbors []string) timedsim.Device {
		d := &trimmedDevice{l: l, f: f}
		d.Init(self, neighbors)
		return d
	}
}

func (d *trimmedDevice) Init(self string, neighbors []string) {
	d.self = self
	d.nbs = sortedNeighbors(neighbors)
	d.corr = clockfn.Reg{}
	d.last = make(map[string]*clockfn.Reg, len(d.nbs))
}

func (d *trimmedDevice) Tick(k int, hwq clockfn.Q, inbox []timedsim.Message) []timedsim.Send {
	hw := d.hw.SetQ(hwq)
	readInbox(d.last, inbox)
	readings := d.readings[:0]
	for _, nb := range d.nbs {
		if v, ok := d.last[nb]; ok {
			readings = append(readings, v)
		}
	}
	d.readings = readings
	if len(readings) > 2*d.f {
		// Stable insertion sort: neighbor fan-in is small and equal
		// readings yield the same median value either way.
		for i := 1; i < len(readings); i++ {
			for j := i; j > 0 && readings[j].Cmp(readings[j-1]) < 0; j-- {
				readings[j], readings[j-1] = readings[j-1], readings[j]
			}
		}
		trimmed := readings[d.f : len(readings)-d.f]
		median := trimmed[len(trimmed)/2]
		own := d.own.Add(hw, &d.corr)
		adj := d.adj.Sub(median, own)
		d.corr.Add(&d.corr, adj.Half(adj))
	}
	d.enc = d.own.Add(hw, &d.corr).Append(d.enc[:0])
	d.out = broadcast(d.out, d.nbs, string(d.enc))
	return d.out
}

func (d *trimmedDevice) Logical(hw clockfn.Q) float64 {
	return d.l.At(d.own.Add(d.hw.SetQ(hw), &d.corr).Float64())
}

func (d *trimmedDevice) Snapshot() string {
	b := strconv.AppendInt(append(d.enc[:0], "trim(f="...), int64(d.f), 10)
	d.enc = appendAveragingState(append(b, ",corr="...), &d.corr, d.nbs, d.last)
	return string(d.enc)
}

// midpointDevice averages: it broadcasts its corrected reading each tick
// and moves its correction halfway toward the midpoint of the extreme
// neighbor readings.
//
// Both averaging devices, this one and trimmedDevice, keep their state in
// clockfn.Reg registers: a correction that moves halfway every tick
// doubles its denominator every tick and outgrows int64 within a few
// dozen ticks, so an immutable clockfn.Q would allocate per operation
// where a register reuses its storage. With a dyadic tick spacing every
// value is dyadic, and the registers add, halve and compare it without a
// gcd.
type midpointDevice struct {
	self string
	nbs  []string
	l    clockfn.Fn
	corr clockfn.Reg
	last map[string]*clockfn.Reg
	hw   clockfn.Reg     // hardware-reading register
	own  clockfn.Reg     // corrected-reading scratch
	mid  clockfn.Reg     // midpoint scratch
	adj  clockfn.Reg     // correction-step scratch
	out  []timedsim.Send // reused outbox (consumed before the next Tick)
	enc  []byte          // reused payload and Snapshot encoding buffer
}

var _ timedsim.Device = (*midpointDevice)(nil)

// NewMidpoint returns a builder for midpoint-averaging devices.
func NewMidpoint(l clockfn.Fn) Builder {
	return func(self string, neighbors []string) timedsim.Device {
		d := &midpointDevice{l: l}
		d.Init(self, neighbors)
		return d
	}
}

func (d *midpointDevice) Init(self string, neighbors []string) {
	d.self = self
	d.nbs = sortedNeighbors(neighbors)
	d.corr = clockfn.Reg{}
	d.last = make(map[string]*clockfn.Reg, len(d.nbs))
}

func (d *midpointDevice) Tick(k int, hwq clockfn.Q, inbox []timedsim.Message) []timedsim.Send {
	hw := d.hw.SetQ(hwq)
	readInbox(d.last, inbox)
	var lo, hi *clockfn.Reg
	for _, nb := range d.nbs {
		v, ok := d.last[nb]
		if !ok {
			continue
		}
		if lo == nil || v.Cmp(lo) < 0 {
			lo = v
		}
		if hi == nil || v.Cmp(hi) > 0 {
			hi = v
		}
	}
	if lo != nil {
		own := d.own.Add(hw, &d.corr)
		mid := d.mid.Add(lo, hi)
		adj := d.adj.Sub(mid.Half(mid), own)
		d.corr.Add(&d.corr, adj.Half(adj))
	}
	d.enc = d.own.Add(hw, &d.corr).Append(d.enc[:0])
	d.out = broadcast(d.out, d.nbs, string(d.enc))
	return d.out
}

func (d *midpointDevice) Logical(hw clockfn.Q) float64 {
	return d.l.At(d.own.Add(d.hw.SetQ(hw), &d.corr).Float64())
}

func (d *midpointDevice) Snapshot() string {
	d.enc = appendAveragingState(append(d.enc[:0], "mid(corr="...), &d.corr, d.nbs, d.last)
	return string(d.enc)
}

// readInbox keeps each sender's latest reading in last. A payload that
// is not a plain decimal, as clockfn.Reg.SetString reads it, is ignored.
func readInbox(last map[string]*clockfn.Reg, inbox []timedsim.Message) {
	for _, m := range inbox {
		if v, ok := last[m.From]; ok {
			v.SetString(m.Payload)
		} else if v := new(clockfn.Reg); v.SetString(m.Payload) {
			last[m.From] = v
		}
	}
}

// broadcast fills out with payload addressed to every neighbor.
func broadcast(out []timedsim.Send, nbs []string, payload string) []timedsim.Send {
	out = out[:0]
	for _, nb := range nbs {
		out = append(out, timedsim.Send{To: nb, Payload: payload})
	}
	return out
}

// appendAveragingState appends the rest of an averaging device's
// snapshot: its correction, ")", then "|name=reading" for each neighbor
// that has reported. Readings arrive only from neighbors, so walking the
// sorted neighbor list visits exactly the keys of last in sorted order.
// A reading parsed from its canonical text appends that text.
func appendAveragingState(b []byte, corr *clockfn.Reg, nbs []string, last map[string]*clockfn.Reg) []byte {
	b = append(corr.Append(b), ')')
	for _, nb := range nbs {
		if v, ok := last[nb]; ok {
			b = append(append(append(b, '|'), nb...), '=')
			b = v.Append(b)
		}
	}
	return b
}
