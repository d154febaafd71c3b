package byzantine

import (
	"fmt"
	"sort"
	"strings"

	"flm/internal/sim"
)

// phaseKingDevice implements the Berman–Garay phase-king protocol for
// binary Byzantine agreement with n >= 4f+1 (polynomial messages, 2(f+1)
// rounds, in contrast to EIG's optimal resilience but exponential
// messages). Kings are the first f+1 processes in sorted name order;
// since there are f+1 phases, at least one phase has a correct king.
type phaseKingDevice struct {
	self     string
	peers    []string
	nbs      []string
	peerPort []int // peer -> port; -1 for non-neighbors
	f        int
	fp       string
	pref     string
	mult     int
	decided  bool
	decision string
	out      sim.Outbox
}

var _ sim.Device = (*phaseKingDevice)(nil)
var _ sim.Fingerprinter = (*phaseKingDevice)(nil)

// DeviceFingerprint is the constructor identity: fault bound and peer
// set (see eigMapDevice.DeviceFingerprint).
func (d *phaseKingDevice) DeviceFingerprint() string {
	if d.fp == "" {
		d.fp = fmt.Sprintf("byz/phaseking:f=%d,peers=%s", d.f, strings.Join(d.peers, ","))
	}
	return d.fp
}

// NewPhaseKing returns a builder for phase-king devices tolerating f
// faults among the given peers (n >= 4f+1 required for correctness).
// Inputs must be canonical booleans; anything else becomes DefaultValue.
// The sorted peer set and fingerprint are computed once and shared by
// every device the builder constructs.
func NewPhaseKing(f int, peers []string) sim.Builder {
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	fp := fmt.Sprintf("byz/phaseking:f=%d,peers=%s", f, strings.Join(sorted, ","))
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		d := &phaseKingDevice{f: f, peers: sorted, fp: fp}
		d.init(self, sortedNames(neighbors), input)
		return d
	}
}

func (d *phaseKingDevice) Init(self string, neighbors []string, input sim.Input) {
	d.init(self, sortedNames(neighbors), input)
}

// init takes ownership of the sorted neighbors slice.
func (d *phaseKingDevice) init(self string, neighbors []string, input sim.Input) {
	d.self = self
	d.nbs = neighbors
	d.peerPort = sim.PortsOf(d.peers, neighbors)
	d.pref = boolOrDefault(string(input))
	d.mult = 0
	d.decided = false
	d.decision = ""
}

func boolOrDefault(v string) string {
	if v == "0" || v == "1" {
		return v
	}
	return DefaultValue
}

// king returns the peer index of the king of 1-indexed phase k.
func (d *phaseKingDevice) king(k int) int { return (k - 1) % len(d.peers) }

// Step drives the two-round phase schedule:
//
//	step 2(k-1):   absorb king k-1's tie-break (k > 1), broadcast pref
//	step 2(k-1)+1: absorb prefs, recompute pref/mult; king k broadcasts
//	step 2(f+1):   absorb the final king, decide
func (d *phaseKingDevice) Step(round int, inbox sim.Inbox) sim.Outbox {
	if d.decided {
		return nil
	}
	switch {
	case round%2 == 0:
		phase := round / 2 // completed phases
		if phase > 0 {
			d.applyKing(d.king(phase), inbox)
		}
		if phase == d.f+1 {
			d.decided = true
			d.decision = d.pref
			return nil
		}
		return d.broadcast(sim.Payload(d.pref))
	default:
		d.tally(inbox)
		phase := (round + 1) / 2
		if d.peers[d.king(phase)] == d.self {
			return d.broadcast(sim.Payload(d.pref))
		}
		return nil
	}
}

// tally counts the received preferences (plus our own) and adopts the
// plurality value, ties favoring DefaultValue. Preferences are canonical
// booleans, so two counters replace the map.
func (d *phaseKingDevice) tally(inbox sim.Inbox) {
	zero, one := 0, 0
	if d.pref == "1" {
		one = 1
	} else {
		zero = 1
	}
	for j, port := range d.peerPort {
		if port < 0 || d.peers[j] == d.self || inbox[port] == sim.None {
			continue
		}
		if boolOrDefault(string(inbox[port])) == "1" {
			one++
		} else {
			zero++
		}
	}
	if one > zero {
		d.pref, d.mult = "1", one
	} else {
		d.pref, d.mult = "0", zero
	}
}

// applyKing keeps the local preference only with a strong majority
// (> n/2 + f); otherwise it adopts the king's broadcast value.
func (d *phaseKingDevice) applyKing(king int, inbox sim.Inbox) {
	if 2*d.mult > len(d.peers)+2*d.f {
		return
	}
	if d.peers[king] == d.self {
		return // our own broadcast was our pref
	}
	kingValue := DefaultValue
	if port := d.peerPort[king]; port >= 0 && inbox[port] != sim.None {
		kingValue = boolOrDefault(string(inbox[port]))
	}
	d.pref = kingValue
}

func (d *phaseKingDevice) broadcast(p sim.Payload) sim.Outbox {
	d.out = sim.Broadcast(d.out, len(d.nbs), p)
	return d.out
}

func (d *phaseKingDevice) Snapshot() string {
	return fmt.Sprintf("pk(f=%d,pref=%s,mult=%d,dec=%v:%s)", d.f, d.pref, d.mult, d.decided, d.decision)
}

func (d *phaseKingDevice) Output() (sim.Decision, bool) {
	if !d.decided {
		return sim.Decision{}, false
	}
	return sim.Decision{Value: d.decision}, true
}

// PhaseKingRounds returns the number of simulator rounds a phase-king run
// needs: two rounds per phase plus the deciding step.
func PhaseKingRounds(f int) int { return 2*(f+1) + 1 }
