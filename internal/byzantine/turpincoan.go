package byzantine

import (
	"fmt"
	"sort"
	"strings"

	"flm/internal/sim"
)

// turpinCoan implements the Turpin-Coan reduction from multivalued to
// binary Byzantine agreement (n >= 3f+1): two preliminary exchange
// rounds distill at most one candidate value w held by enough correct
// nodes, binary EIG agrees on whether to adopt it, and the quorum
// arithmetic guarantees every correct node that needs w can identify it
// unambiguously.
//
//	Round 0: broadcast the input value.
//	Round 1: broadcast y = the value seen >= n-f times (or ⊥).
//	         Set vote = 1 iff some value appears >= n-f times among the
//	         y's, and alt = the unique value appearing >= f+1 times.
//	Rounds 2..: binary EIG on vote; decide alt if it agrees on 1 and alt
//	         exists, else the default value.
//
// Correctness hinges on two quorum facts (both need n > 3f): two correct
// nodes' non-⊥ y values coincide, and any value with >= f+1 round-1
// witnesses among the y's was vouched for by a correct node.
type turpinCoan struct {
	self      string
	peers     []string
	neighbors []string
	peerPort  []int // peer -> port; -1 for non-neighbors
	f         int
	fp        string
	innerB    sim.Builder // hoisted inner-EIG builder, shared across devices
	input     string
	y         string // round-1 relay value, "" encodes ⊥
	alt       string
	altOK     bool
	inner     sim.Device
	decided   bool
	decision  string
	tvals     []string // tally scratch: distinct values and their counts
	tcnts     []int
	out       sim.Outbox
}

var _ sim.Device = (*turpinCoan)(nil)
var _ sim.Fingerprinter = (*turpinCoan)(nil)

// DeviceFingerprint is the constructor identity: fault bound and peer
// set (see eigMapDevice.DeviceFingerprint).
func (d *turpinCoan) DeviceFingerprint() string {
	if d.fp == "" {
		d.fp = fmt.Sprintf("byz/turpincoan:f=%d,peers=%s", d.f, strings.Join(d.peers, ","))
	}
	return d.fp
}

// tcBot is the on-wire encoding of ⊥.
const tcBot = "-"

// NewTurpinCoan returns a builder for multivalued agreement devices over
// arbitrary string values (n >= 3f+1). Values containing protocol
// delimiters are treated as the default. The inner binary-EIG builder is
// constructed once here — not per device per trial — so every device the
// builder makes shares the sorted peer set, fingerprints, and the flat
// EIG tree shape.
func NewTurpinCoan(f int, peers []string) sim.Builder {
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	fp := fmt.Sprintf("byz/turpincoan:f=%d,peers=%s", f, strings.Join(sorted, ","))
	innerB := NewEIG(f, sorted)
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		d := &turpinCoan{f: f, peers: sorted, fp: fp, innerB: innerB}
		d.init(self, sortedNames(neighbors), input)
		return d
	}
}

// TurpinCoanRounds returns the simulator rounds a Turpin-Coan run needs:
// two exchange rounds plus the binary agreement.
func TurpinCoanRounds(f int) int { return 2 + EIGRounds(f) }

func (d *turpinCoan) Init(self string, neighbors []string, input sim.Input) {
	d.init(self, sortedNames(neighbors), input)
}

// init takes ownership of the sorted neighbors slice.
func (d *turpinCoan) init(self string, neighbors []string, input sim.Input) {
	d.self = self
	d.neighbors = neighbors
	d.peerPort = sim.PortsOf(d.peers, neighbors)
	d.input = sanitizeMV(string(input))
	d.y = ""
	d.alt, d.altOK = "", false
	d.inner = nil
	d.decided = false
	d.decision = ""
}

// sanitizeMV keeps multivalued inputs inside the payload alphabet.
func sanitizeMV(v string) string {
	if v == "" || v == tcBot || strings.ContainsAny(v, ";=/|") {
		return DefaultValue
	}
	return v
}

func (d *turpinCoan) Step(round int, inbox sim.Inbox) sim.Outbox {
	switch {
	case round == 0:
		return d.broadcast(sim.Payload(d.input))
	case round == 1:
		d.tallyPeers(inbox, d.input)
		// Adopt the largest value with an n-f quorum (the reference scan
		// over sorted keys kept overwriting, so the last — maximal —
		// qualifier won), else ⊥.
		d.y = tcBot
		found := false
		for i, v := range d.tvals {
			if d.tcnts[i] >= len(d.peers)-d.f && (!found || v > d.y) {
				d.y, found = v, true
			}
		}
		return d.broadcast(sim.Payload(d.y))
	case round == 2:
		d.tallyPeers(inbox, d.y)
		vote := false
		for i, v := range d.tvals {
			if v == tcBot {
				continue
			}
			if d.tcnts[i] >= len(d.peers)-d.f {
				vote = true
			}
			if d.tcnts[i] >= d.f+1 && (!d.altOK || v > d.alt) {
				// Unique when it exists: a value with f+1 witnesses has a
				// correct witness, and correct non-⊥ y values coincide.
				// Maximal qualifier for the same reason as round 1.
				d.alt, d.altOK = v, true
			}
		}
		innerB := d.innerB
		if innerB == nil {
			innerB = NewEIG(d.f, d.peers)
		}
		d.inner = innerB(d.self, d.neighbors, sim.BoolInput(vote))
		return d.inner.Step(0, nil)
	default:
		out := d.inner.Step(round-2, inbox)
		if dec, ok := d.inner.Output(); ok && !d.decided {
			d.decided = true
			if dec.Value == "1" && d.altOK {
				d.decision = d.alt
			} else {
				d.decision = DefaultValue
			}
		}
		return out
	}
}

// tallyPeers counts the values received from every peer this round
// (self-delivery via own), treating silence as ⊥. Distinct values land in
// the reused tvals/tcnts scratch (at most n+1 of them, so the linear scan
// beats a map).
func (d *turpinCoan) tallyPeers(inbox sim.Inbox, own string) {
	d.tvals, d.tcnts = d.tvals[:0], d.tcnts[:0]
	d.tallyAdd(own)
	for j, p := range d.peers {
		if p == d.self {
			continue
		}
		v := tcBot
		if port := d.peerPort[j]; port >= 0 && inbox[port] != sim.None {
			s := string(inbox[port])
			if s == tcBot {
				v = tcBot
			} else if sanitized := sanitizeMV(s); sanitized == s {
				v = s
			}
			// Garbled payloads count as ⊥.
		}
		d.tallyAdd(v)
	}
}

func (d *turpinCoan) tallyAdd(v string) {
	for i := range d.tvals {
		if d.tvals[i] == v {
			d.tcnts[i]++
			return
		}
	}
	d.tvals, d.tcnts = append(d.tvals, v), append(d.tcnts, 1)
}

func (d *turpinCoan) broadcast(p sim.Payload) sim.Outbox {
	d.out = sim.Broadcast(d.out, len(d.neighbors), p)
	return d.out
}

func (d *turpinCoan) Snapshot() string {
	innerSnap := "pre"
	if d.inner != nil {
		innerSnap = d.inner.Snapshot()
	}
	return fmt.Sprintf("tc(in=%s,y=%s,alt=%s/%v,dec=%v:%s)|%s",
		d.input, d.y, d.alt, d.altOK, d.decided, d.decision, innerSnap)
}

func (d *turpinCoan) Output() (sim.Decision, bool) {
	if !d.decided {
		return sim.Decision{}, false
	}
	return sim.Decision{Value: d.decision}, true
}
