// Package clocksync implements FLM85 Section 7: clock synchronization
// devices (the trivial lower-envelope clock, a chase-the-fastest clock,
// and a midpoint-averaging clock), the "nontrivial synchronization"
// conditions, and the mechanized Theorem 8 argument — the ring covering
// with hardware clocks q∘h⁻ⁱ in which any device that beats the trivial
// synchronization l(q(t))−l(p(t)) by a constant α must violate either the
// agreement bound or the envelope condition.
package clocksync

import (
	"math/big"
	"sort"
	"strconv"

	"flm/internal/clockfn"
	"flm/internal/timedsim"
)

// Builder constructs a fresh synchronization device for a named node.
type Builder func(self string, neighbors []string) timedsim.Device

// ratTwo is the shared division constant for the averaging devices. It is
// never mutated: big.Rat.Quo only reads its operand's storage, so sharing
// it across concurrently ticking devices is safe.
var ratTwo = big.NewRat(2, 1)

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
	corr     *big.Rat
	last     map[string]*big.Rat
	tmp      big.Rat // per-message parse scratch
	hw       big.Rat // hardware-reading register
	own      big.Rat // corrected-reading scratch
	adj      big.Rat // correction-step scratch
	scr      clockfn.RatScratch
	readings []*big.Rat      // reused per-tick sort buffer
	out      []timedsim.Send // reused outbox (consumed before the next Tick)
	enc      []byte          // reused Snapshot encoding buffer
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
	d.corr = new(big.Rat)
	d.last = make(map[string]*big.Rat, len(d.nbs))
}

func (d *trimmedDevice) Tick(k int, hwq clockfn.Q, inbox []timedsim.Message) []timedsim.Send {
	hw := hwq.Rat(&d.hw)
	for _, m := range inbox {
		if reported, ok := d.tmp.SetString(m.Payload); ok {
			if v, exists := d.last[m.From]; exists {
				v.Set(reported)
			} else {
				d.last[m.From] = new(big.Rat).Set(reported)
			}
		}
	}
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
			for j := i; j > 0 && d.scr.Cmp(readings[j], readings[j-1]) < 0; j-- {
				readings[j], readings[j-1] = readings[j-1], readings[j]
			}
		}
		trimmed := readings[d.f : len(readings)-d.f]
		median := trimmed[len(trimmed)/2]
		own := d.own.Add(hw, d.corr)
		adj := d.adj.Sub(median, own)
		adj.Quo(adj, ratTwo)
		d.corr.Add(d.corr, adj)
	}
	d.own.Add(hw, d.corr)
	payload := d.own.RatString()
	out := d.out[:0]
	for _, nb := range d.nbs {
		out = append(out, timedsim.Send{To: nb, Payload: payload})
	}
	d.out = out
	return out
}

func (d *trimmedDevice) Logical(hw clockfn.Q) float64 {
	d.own.Add(hw.Rat(&d.hw), d.corr)
	f, _ := d.own.Float64()
	return d.l.At(f)
}

func (d *trimmedDevice) Snapshot() string {
	b := strconv.AppendInt(append(d.enc[:0], "trim(f="...), int64(d.f), 10)
	d.enc = appendAveragingState(append(b, ",corr="...), d.corr, d.nbs, d.last)
	return string(d.enc)
}

// midpointDevice averages: it broadcasts its corrected reading each tick
// and moves its correction halfway toward the midpoint of the extreme
// neighbor readings.
//
// Both averaging devices, this one and trimmedDevice, keep their state in
// big.Rat registers: a correction that moves halfway every tick doubles
// its denominator every tick and outgrows int64 within a few dozen
// ticks, so an immutable clockfn.Q would allocate a fresh big.Rat per
// operation where a register reuses its storage. Each hardware reading
// enters through clockfn.Q.Rat into a register of the device's own.
type midpointDevice struct {
	self string
	nbs  []string
	l    clockfn.Fn
	corr *big.Rat
	last map[string]*big.Rat
	tmp  big.Rat // per-message parse scratch
	hw   big.Rat // hardware-reading register
	own  big.Rat // corrected-reading scratch
	mid  big.Rat // midpoint scratch
	adj  big.Rat // correction-step scratch
	scr  clockfn.RatScratch
	out  []timedsim.Send // reused outbox (consumed before the next Tick)
	enc  []byte          // reused Snapshot encoding buffer
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
	d.corr = new(big.Rat)
	d.last = make(map[string]*big.Rat, len(d.nbs))
}

func (d *midpointDevice) Tick(k int, hwq clockfn.Q, inbox []timedsim.Message) []timedsim.Send {
	hw := hwq.Rat(&d.hw)
	for _, m := range inbox {
		if reported, ok := d.tmp.SetString(m.Payload); ok {
			if v, exists := d.last[m.From]; exists {
				v.Set(reported)
			} else {
				d.last[m.From] = new(big.Rat).Set(reported)
			}
		}
	}
	if len(d.last) > 0 {
		own := d.own.Add(hw, d.corr)
		lo, hi := (*big.Rat)(nil), (*big.Rat)(nil)
		for _, nb := range d.nbs {
			v, ok := d.last[nb]
			if !ok {
				continue
			}
			if lo == nil || d.scr.Cmp(v, lo) < 0 {
				lo = v
			}
			if hi == nil || d.scr.Cmp(v, hi) > 0 {
				hi = v
			}
		}
		if lo != nil {
			mid := d.mid.Add(lo, hi)
			mid.Quo(mid, ratTwo)
			adj := d.adj.Sub(mid, own)
			adj.Quo(adj, ratTwo)
			d.corr.Add(d.corr, adj)
		}
	}
	d.own.Add(hw, d.corr)
	payload := d.own.RatString()
	out := d.out[:0]
	for _, nb := range d.nbs {
		out = append(out, timedsim.Send{To: nb, Payload: payload})
	}
	d.out = out
	return out
}

func (d *midpointDevice) Logical(hw clockfn.Q) float64 {
	d.own.Add(hw.Rat(&d.hw), d.corr)
	f, _ := d.own.Float64()
	return d.l.At(f)
}

func (d *midpointDevice) Snapshot() string {
	d.enc = appendAveragingState(append(d.enc[:0], "mid(corr="...), d.corr, d.nbs, d.last)
	return string(d.enc)
}

// appendAveragingState appends the rest of an averaging device's
// snapshot: its correction, ")", then "|name=reading" for each neighbor
// that has reported. Readings arrive only from neighbors, so walking the
// sorted neighbor list visits exactly the keys of last in sorted order.
// Each value is written as its RatString, without building the string.
func appendAveragingState(b []byte, corr *big.Rat, nbs []string, last map[string]*big.Rat) []byte {
	b = append(appendRat(b, corr), ')')
	for _, nb := range nbs {
		if v, ok := last[nb]; ok {
			b = append(append(append(b, '|'), nb...), '=')
			b = appendRat(b, v)
		}
	}
	return b
}

// appendRat appends x.RatString().
func appendRat(b []byte, x *big.Rat) []byte {
	b = x.Num().Append(b, 10)
	if x.IsInt() {
		return b
	}
	return x.Denom().Append(append(b, '/'), 10)
}
