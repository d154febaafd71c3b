// Package firingsquad implements the Byzantine firing squad problem of
// FLM85 Section 5: one or more nodes may receive a stimulus at time 0
// (input 1); correct nodes must enter a designated FIRE state
// simultaneously, and — when all nodes are correct — must fire iff a
// stimulus occurred somewhere. FLM85 Theorem 4 shows the problem needs
// 3f+1 nodes and 2f+1 connectivity under the Bounded-Delay Locality
// axiom; on adequate complete graphs the reduction to Byzantine agreement
// (broadcast the stimulus, agree on whether anyone saw it, fire at a
// fixed round) solves it.
package firingsquad

import (
	"fmt"
	"sort"
	"strings"

	"flm/internal/byzantine"
	"flm/internal/sim"
)

// Fired is the decision value that represents entering the FIRE state;
// the simulator's Decision.Round is the fire time.
const Fired = "FIRE"

// viaBA solves the firing squad on complete graphs with n >= 3f+1:
// round 0 broadcasts the stimulus bit, then EIG agreement runs on "did I
// hear any stimulus claim", and a positive outcome fires at the fixed
// round f+3. Agreement makes firing simultaneous; with all nodes correct
// the round-0 broadcast makes the EIG input unanimous, giving validity.
type viaBA struct {
	self      string
	neighbors []string
	f         int
	peers     []string
	stimulus  bool
	heard     bool
	inner     sim.Device
	fired     bool
	fireRound int
	snap      string // last Snapshot; "" once Init or Step changes the state
	innerSnap string // the inner snapshot that snap wraps
}

var _ sim.Device = (*viaBA)(nil)
var _ sim.Fingerprinter = (*viaBA)(nil)

// DeviceFingerprint is the constructor identity: fault bound and peer
// set. The inner EIG device is created during Step from these plus the
// stimulus traffic, so it needs no separate identity.
func (d *viaBA) DeviceFingerprint() string {
	return fmt.Sprintf("fs/viaba:f=%d,peers=%s", d.f, strings.Join(d.peers, ","))
}

// NewViaBA returns a builder for firing-squad devices tolerating f
// faults among the given peers.
func NewViaBA(f int, peers []string) sim.Builder {
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		d := &viaBA{f: f, peers: sorted}
		d.Init(self, neighbors, input)
		return d
	}
}

func (d *viaBA) Init(self string, neighbors []string, input sim.Input) {
	d.self = self
	d.neighbors = append([]string(nil), neighbors...)
	sort.Strings(d.neighbors)
	d.stimulus = string(input) == "1"
	d.fireRound = -1
	d.snap = ""
}

// FireTime returns the round at which a positive outcome fires:
// 1 (stimulus broadcast) + f+2 (EIG) giving round index f+3 as the step
// in which every correct device enters FIRE.
func FireTime(f int) int { return f + 3 }

// Rounds returns the simulator rounds needed to observe firing.
func Rounds(f int) int { return FireTime(f) + 1 }

func (d *viaBA) Step(round int, inbox sim.Inbox) sim.Outbox {
	switch {
	case round == 0:
		// Broadcast the stimulus bit.
		return sim.Broadcast(nil, len(d.neighbors), sim.Payload(sim.EncodeBool(d.stimulus)))
	case round == 1:
		// Determine the BA input: stimulus here or a claim from anyone.
		d.heard = d.stimulus
		for _, p := range inbox {
			if string(p) == "1" {
				d.heard = true
			}
		}
		d.inner = byzantine.NewEIG(d.f, d.peers)(d.self, d.neighbors, sim.BoolInput(d.heard))
		d.snap = ""
		return d.inner.Step(0, nil)
	default:
		out := d.inner.Step(round-1, inbox)
		if dec, ok := d.inner.Output(); ok && dec.Value == "1" && round >= FireTime(d.f) && !d.fired {
			d.fired = true
			d.fireRound = FireTime(d.f)
			d.snap = ""
		}
		return out
	}
}

// Snapshot wraps the inner EIG snapshot in the firing-squad state. The
// wrapper is rebuilt only when either changes: the inner device returns
// the very same string while its tree stands still, so the comparison is
// a pointer check in the common case.
func (d *viaBA) Snapshot() string {
	inner := "pre"
	if d.inner != nil {
		inner = d.inner.Snapshot()
	}
	if d.snap == "" || inner != d.innerSnap {
		d.snap = fmt.Sprintf("fs(stim=%v,heard=%v,fired=%v@%d)|%s", d.stimulus, d.heard, d.fired, d.fireRound, inner)
		d.innerSnap = inner
	}
	return d.snap
}

func (d *viaBA) Output() (sim.Decision, bool) {
	if !d.fired {
		return sim.Decision{}, false
	}
	return sim.Decision{Value: Fired}, true
}

// countdown is a naive firing-squad attempt for the impossibility panel:
// stimulus reports carry their claimed origin round ("S0"), every node
// floods the earliest origin it has heard of, and fires fuse rounds after
// that origin. With all nodes correct this is simultaneous (every claim
// says S0 and floods within the fuse), but origin claims are forgeable,
// so a Byzantine node can stagger fire times — and on inadequate graphs
// Theorem 4 says no repair is possible.
type countdown struct {
	self      string
	neighbors []string
	fuse      int
	origin    int // earliest claimed stimulus round; -1 if none heard
	fired     bool
	out       sim.Outbox
	snap      string // last Snapshot; "" once Init or Step changes the state
}

var _ sim.Device = (*countdown)(nil)
var _ sim.Fingerprinter = (*countdown)(nil)

// DeviceFingerprint is the constructor identity (the fuse length).
func (d *countdown) DeviceFingerprint() string {
	return fmt.Sprintf("fs/countdown:fuse=%d", d.fuse)
}

// NewCountdown returns a builder for countdown devices with the given
// fuse length (rounds between the claimed stimulus origin and firing).
func NewCountdown(fuse int) sim.Builder {
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		d := &countdown{fuse: fuse}
		d.Init(self, neighbors, input)
		return d
	}
}

func (d *countdown) Init(self string, neighbors []string, input sim.Input) {
	d.self = self
	d.neighbors = append([]string(nil), neighbors...)
	sort.Strings(d.neighbors)
	d.origin = -1
	if string(input) == "1" {
		d.origin = 0
	}
	d.snap = ""
}

func (d *countdown) Step(round int, inbox sim.Inbox) sim.Outbox {
	for _, p := range inbox {
		s := string(p)
		if len(s) < 2 || s[0] != 'S' {
			continue
		}
		if k, err := sim.DecodeInt(s[1:]); err == nil && k >= 0 && (d.origin < 0 || k < d.origin) {
			d.origin = k
			d.snap = ""
		}
	}
	if d.origin >= 0 && round >= d.origin+d.fuse && !d.fired {
		d.fired = true
		d.snap = ""
	}
	if d.origin < 0 {
		return nil
	}
	d.out = sim.Broadcast(d.out, len(d.neighbors), sim.Payload(fmt.Sprintf("S%d", d.origin)))
	return d.out
}

// Snapshot encodes the state once per change; repeats return the same
// string.
func (d *countdown) Snapshot() string {
	if d.snap == "" {
		d.snap = fmt.Sprintf("cd(fuse=%d,origin=%d,fired=%v)", d.fuse, d.origin, d.fired)
	}
	return d.snap
}

func (d *countdown) Output() (sim.Decision, bool) {
	if !d.fired {
		return sim.Decision{}, false
	}
	return sim.Decision{Value: Fired}, true
}

// Check evaluates the firing squad conditions. allCorrect states whether
// every node of the system is correct (the only case validity binds);
// stimulated reports whether any node received the stimulus. The
// problem has no termination condition, so Termination stays nil.
func Check(run *sim.Run, correct []string, allCorrect, stimulated bool) sim.Report {
	var rep sim.Report
	fireRound := -2 // -2 unset, -1 none
	for _, name := range correct {
		d, err := run.DecisionOf(name)
		if err != nil {
			rep.Agreement = err
			return rep
		}
		r := -1
		if d.Value == Fired {
			r = d.Round
		}
		switch {
		case fireRound == -2:
			fireRound = r
		case fireRound != r:
			rep.Agreement = fmt.Errorf("firingsquad: node %s fired at %d but others at %d",
				name, r, fireRound)
		}
	}
	if allCorrect {
		if stimulated && fireRound < 0 {
			rep.Validity = fmt.Errorf("firingsquad: stimulus occurred but no correct node fired within the horizon")
		}
		if !stimulated && fireRound >= 0 {
			rep.Validity = fmt.Errorf("firingsquad: no stimulus but nodes fired at round %d", fireRound)
		}
	}
	return rep
}
