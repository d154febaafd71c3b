// Package approx implements approximate agreement: the DLPSW iterated
// fault-tolerant averaging protocol (Dolev, Lynch, Pinter, Stark, Weihl),
// the simple approximate agreement and (ε,δ,γ)-agreement problems of
// FLM85 Section 6, and their correctness conditions as checkable
// predicates.
//
// In both problems correct nodes hold real inputs and choose real
// outputs. Simple approximate agreement requires the chosen values to be
// strictly closer together than the inputs (unless the inputs already
// agree) and inside the input range; (ε,δ,γ)-agreement requires outputs
// within ε of each other and within γ of the input range, for inputs at
// most δ apart. FLM85 proves both impossible on inadequate graphs; DLPSW
// achieves them on complete graphs with n >= 3f+1.
package approx

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"flm/internal/sim"
)

// round is deliberately not exported: devices in this package follow the
// shared schedule "broadcast every round, decide at decideRound".

// medianDevice is the natural triangle strategy for simple approximate
// agreement: exchange values once and choose the median of what was seen
// (own value plus neighbors, missing values replaced by one's own). On
// adequate graphs with f=1 the median of 2f+1 honest-majority values lies
// in the correct range; Theorem 5's hexagon defeats it on the triangle.
type medianDevice struct {
	self        string
	nbs         []string
	value       float64
	seen        map[string]float64
	decideRound int
	decided     bool
	decision    float64
	out         sim.Outbox
}

var _ sim.Device = (*medianDevice)(nil)
var _ sim.Fingerprinter = (*medianDevice)(nil)

// DeviceFingerprint is the constructor identity (the decide round).
func (d *medianDevice) DeviceFingerprint() string {
	return fmt.Sprintf("approx/median@%d", d.decideRound)
}

// NewMedian returns a builder for median devices deciding at the given
// round.
func NewMedian(decideRound int) sim.Builder {
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		d := &medianDevice{decideRound: decideRound}
		d.Init(self, neighbors, input)
		return d
	}
}

func (d *medianDevice) Init(self string, neighbors []string, input sim.Input) {
	d.self = self
	d.nbs = append([]string(nil), neighbors...)
	sort.Strings(d.nbs)
	v, err := sim.DecodeReal(string(input))
	if err != nil {
		v = 0
	}
	d.value = v
	d.seen = map[string]float64{self: v}
}

func (d *medianDevice) Step(round int, inbox sim.Inbox) sim.Outbox {
	absorbReals(d.seen, d.nbs, inbox)
	if !d.decided && round >= d.decideRound {
		vals := valuesWithDefault(d.seen, d.nbs, d.value)
		d.decision = median(vals)
		d.decided = true
	}
	d.out = sim.Broadcast(d.out, len(d.nbs), sim.Payload(sim.EncodeReal(d.value)))
	return d.out
}

// absorbReals records, by sender name, every well-formed finite value in
// the inbox; nbs names the ports.
func absorbReals(seen map[string]float64, nbs []string, inbox sim.Inbox) {
	for i, p := range inbox {
		if p == sim.None {
			continue
		}
		if v, err := sim.DecodeReal(string(p)); err == nil && !math.IsNaN(v) && !math.IsInf(v, 0) {
			seen[nbs[i]] = v
		}
	}
}

func valuesWithDefault(seen map[string]float64, nbs []string, def float64) []float64 {
	vals := make([]float64, 0, len(seen)+len(nbs))
	for _, v := range seen {
		vals = append(vals, v)
	}
	// Fill in silent neighbors with the default so the multiset size is
	// deterministic.
	for _, nb := range nbs {
		if _, ok := seen[nb]; !ok {
			vals = append(vals, def)
		}
	}
	sort.Float64s(vals)
	return vals
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func (d *medianDevice) Snapshot() string {
	return fmt.Sprintf("median(dec=%v:%s)|%s", d.decided, sim.EncodeReal(d.decision), encodeSeen(d.seen))
}

func encodeSeen(seen map[string]float64) string {
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + sim.EncodeReal(seen[k])
	}
	return strings.Join(parts, ",")
}

func (d *medianDevice) Output() (sim.Decision, bool) {
	if !d.decided {
		return sim.Decision{}, false
	}
	return sim.Decision{Value: sim.EncodeReal(d.decision)}, true
}

// dlpswDevice runs the synchronous DLPSW iterated approximation protocol
// on a complete graph: each round every node broadcasts its value,
// reduces the received multiset by discarding the f lowest and f highest
// values, and averages every f-th element of the remainder. With
// n >= 3f+1 the spread of correct values contracts by a factor of at
// least 2 per round and stays inside the correct input range.
type dlpswDevice struct {
	self     string
	peers    []string
	nbs      []string
	peerPort []int // peer -> port; -1 for non-neighbors
	f        int
	rounds   int
	value    float64
	decided  bool
	decision float64
	out      sim.Outbox
}

var _ sim.Device = (*dlpswDevice)(nil)
var _ sim.Fingerprinter = (*dlpswDevice)(nil)

// DeviceFingerprint is the constructor identity: fault bound, peer set,
// and iteration count.
func (d *dlpswDevice) DeviceFingerprint() string {
	return fmt.Sprintf("approx/dlpsw:f=%d,rounds=%d,peers=%s", d.f, d.rounds, strings.Join(d.peers, ","))
}

// NewDLPSW returns a builder for DLPSW devices tolerating f faults among
// the given peers, iterating for the given number of averaging rounds
// before deciding.
func NewDLPSW(f int, peers []string, rounds int) sim.Builder {
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		d := &dlpswDevice{f: f, peers: sorted, rounds: rounds}
		d.Init(self, neighbors, input)
		return d
	}
}

func (d *dlpswDevice) Init(self string, neighbors []string, input sim.Input) {
	d.self = self
	d.nbs = append([]string(nil), neighbors...)
	sort.Strings(d.nbs)
	d.peerPort = sim.PortsOf(d.peers, d.nbs)
	v, err := sim.DecodeReal(string(input))
	if err != nil {
		v = 0
	}
	d.value = v
}

func (d *dlpswDevice) Step(round int, inbox sim.Inbox) sim.Outbox {
	if round > 0 && !d.decided {
		vals := make([]float64, 0, len(d.peers))
		vals = append(vals, d.value)
		for j, p := range d.peers {
			if p == d.self {
				continue
			}
			v := d.value // silent or garbled peers count as our own value
			if port := d.peerPort[j]; port >= 0 && inbox[port] != sim.None {
				if x, err := sim.DecodeReal(string(inbox[port])); err == nil && !math.IsNaN(x) && !math.IsInf(x, 0) {
					v = x
				}
			}
			vals = append(vals, v)
		}
		d.value = Reduce(vals, d.f)
		if round >= d.rounds {
			d.decided = true
			d.decision = d.value
		}
	}
	if d.decided {
		return nil
	}
	d.out = sim.Broadcast(d.out, len(d.nbs), sim.Payload(sim.EncodeReal(d.value)))
	return d.out
}

// Reduce implements the DLPSW averaging function: sort, discard the f
// lowest and f highest values, then average every f-th element of the
// remainder (all of it when f = 0). The result always lies within the
// range of the non-extreme values.
func Reduce(vals []float64, f int) float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	if len(sorted) <= 2*f {
		// Degenerate (n too small); fall back to the median.
		return median(sorted)
	}
	reduced := sorted[f : len(sorted)-f]
	step := f
	if step == 0 {
		step = 1
	}
	sum, count := 0.0, 0
	for i := 0; i < len(reduced); i += step {
		sum += reduced[i]
		count++
	}
	return sum / float64(count)
}

func (d *dlpswDevice) Snapshot() string {
	return fmt.Sprintf("dlpsw(f=%d,v=%s,dec=%v:%s)", d.f, sim.EncodeReal(d.value), d.decided, sim.EncodeReal(d.decision))
}

func (d *dlpswDevice) Output() (sim.Decision, bool) {
	if !d.decided {
		return sim.Decision{}, false
	}
	return sim.Decision{Value: sim.EncodeReal(d.decision)}, true
}

// RoundsFor returns the number of averaging rounds DLPSW needs to bring
// an initial spread of delta within eps, using the guaranteed per-round
// contraction factor of 2, plus one round of slack.
func RoundsFor(delta, eps float64) int {
	if delta <= eps {
		return 1
	}
	return int(math.Ceil(math.Log2(delta/eps))) + 1
}

// DLPSWRounds converts averaging rounds to simulator rounds (one extra
// step for the initial broadcast).
func DLPSWRounds(averagingRounds int) int { return averagingRounds + 1 }
