package clocksync

import (
	"math/big"

	"flm/internal/clockfn"
	"flm/internal/timedsim"
)

// ratMidpointDevice and ratTrimmedDevice are the averaging devices as
// they were first written, with every value in a big.Rat register that
// normalizes through a gcd after each operation, and every reading
// parsed by big.Rat.SetString. Their Snapshot is the reference encoding
// of snapshot_test.go.
//
// NewMidpoint and NewTrimmedMidpoint build the clockfn.Reg devices;
// these are the oracle of the equivalence tests. The two must stay
// observably identical (payloads, Snapshot, Logical) on every reading
// that is a plain decimal or that both reject.
type ratMidpointDevice struct {
	nbs  []string
	l    clockfn.Fn
	corr *big.Rat
	last map[string]*big.Rat
}

var _ timedsim.Device = (*ratMidpointDevice)(nil)

func newRatMidpoint(l clockfn.Fn) Builder {
	return func(self string, neighbors []string) timedsim.Device {
		d := &ratMidpointDevice{l: l}
		d.Init(self, neighbors)
		return d
	}
}

func (d *ratMidpointDevice) Init(self string, neighbors []string) {
	d.nbs = sortedNeighbors(neighbors)
	d.corr = new(big.Rat)
	d.last = make(map[string]*big.Rat, len(d.nbs))
}

func (d *ratMidpointDevice) Tick(k int, hwq clockfn.Q, inbox []timedsim.Message) []timedsim.Send {
	hw := hwq.Rat(new(big.Rat))
	ratReadInbox(d.last, inbox)
	if len(d.last) > 0 {
		own := new(big.Rat).Add(hw, d.corr)
		var lo, hi *big.Rat
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
			mid := new(big.Rat).Add(lo, hi)
			mid.Quo(mid, big.NewRat(2, 1))
			adj := new(big.Rat).Sub(mid, own)
			adj.Quo(adj, big.NewRat(2, 1))
			d.corr.Add(d.corr, adj)
		}
	}
	return ratBroadcast(d.nbs, new(big.Rat).Add(hw, d.corr).RatString())
}

func (d *ratMidpointDevice) Logical(hw clockfn.Q) float64 {
	f, _ := new(big.Rat).Add(hw.Rat(new(big.Rat)), d.corr).Float64()
	return d.l.At(f)
}

func (d *ratMidpointDevice) Snapshot() string { return midpointSnapshotReference(d) }

type ratTrimmedDevice struct {
	nbs  []string
	l    clockfn.Fn
	f    int
	corr *big.Rat
	last map[string]*big.Rat
}

var _ timedsim.Device = (*ratTrimmedDevice)(nil)

func newRatTrimmedMidpoint(l clockfn.Fn, f int) Builder {
	return func(self string, neighbors []string) timedsim.Device {
		d := &ratTrimmedDevice{l: l, f: f}
		d.Init(self, neighbors)
		return d
	}
}

func (d *ratTrimmedDevice) Init(self string, neighbors []string) {
	d.nbs = sortedNeighbors(neighbors)
	d.corr = new(big.Rat)
	d.last = make(map[string]*big.Rat, len(d.nbs))
}

func (d *ratTrimmedDevice) Tick(k int, hwq clockfn.Q, inbox []timedsim.Message) []timedsim.Send {
	hw := hwq.Rat(new(big.Rat))
	ratReadInbox(d.last, inbox)
	var readings []*big.Rat
	for _, nb := range d.nbs {
		if v, ok := d.last[nb]; ok {
			readings = append(readings, v)
		}
	}
	if len(readings) > 2*d.f {
		for i := 1; i < len(readings); i++ {
			for j := i; j > 0 && readings[j].Cmp(readings[j-1]) < 0; j-- {
				readings[j], readings[j-1] = readings[j-1], readings[j]
			}
		}
		trimmed := readings[d.f : len(readings)-d.f]
		median := trimmed[len(trimmed)/2]
		own := new(big.Rat).Add(hw, d.corr)
		adj := new(big.Rat).Sub(median, own)
		adj.Quo(adj, big.NewRat(2, 1))
		d.corr.Add(d.corr, adj)
	}
	return ratBroadcast(d.nbs, new(big.Rat).Add(hw, d.corr).RatString())
}

func (d *ratTrimmedDevice) Logical(hw clockfn.Q) float64 {
	f, _ := new(big.Rat).Add(hw.Rat(new(big.Rat)), d.corr).Float64()
	return d.l.At(f)
}

func (d *ratTrimmedDevice) Snapshot() string { return trimmedSnapshotReference(d) }

// ratReadInbox keeps each sender's latest reading that big.Rat.SetString
// reads.
func ratReadInbox(last map[string]*big.Rat, inbox []timedsim.Message) {
	for _, m := range inbox {
		if r, ok := new(big.Rat).SetString(m.Payload); ok {
			last[m.From] = r
		}
	}
}

func ratBroadcast(nbs []string, payload string) []timedsim.Send {
	out := make([]timedsim.Send, 0, len(nbs))
	for _, nb := range nbs {
		out = append(out, timedsim.Send{To: nb, Payload: payload})
	}
	return out
}
