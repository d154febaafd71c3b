package sim

import (
	"slices"
	"sort"
	"strconv"
	"strings"
)

// ReplayDevice is the executable form of the paper's Fault axiom device
// F_A(E_1,...,E_d): installed at a node, it ignores everything it
// receives and plays a prerecorded payload sequence on each outedge
// independently. The recorded sequences may come from different system
// behaviors — that is the masquerading power the axiom grants to faulty
// nodes.
type ReplayDevice struct {
	self    string
	scripts map[string][]Payload // per-neighbor payload sequence, by name
	ports   [][]Payload          // the same scripts by port; nil for a silent port
	suffix  string               // ";nb" per scripted neighbor, sorted; "" until Snapshot joins it
	round   int
	out     Outbox // reused across Steps; see the Device Outbox contract
}

var _ Device = (*ReplayDevice)(nil)
var _ Fingerprinter = (*ReplayDevice)(nil)

// NewReplayDevice builds the Fault-axiom device from per-neighbor payload
// scripts. Missing neighbors stay silent.
//
// The map is cloned (Init prunes it to actual neighbors) but the payload
// slices are shared with the caller, not copied: scripts come from
// recorded runs, runs are immutable once executed, and the device only
// ever reads them. Splice-heavy chains build thousands of replay devices
// from the same covering run, so the sharing is a measurable allocation
// win; TestReplayScriptsNotAliased pins the read-only guarantee.
func NewReplayDevice(scripts map[string][]Payload) *ReplayDevice {
	copied := make(map[string][]Payload, len(scripts))
	for nb, seq := range scripts {
		copied[nb] = seq
	}
	return &ReplayDevice{scripts: copied}
}

// Builder returns a Builder producing replay devices with the given
// scripts, for installation through NewSystem.
func ReplayBuilder(scripts map[string][]Payload) Builder {
	return func(self string, neighbors []string, input Input) Device {
		d := NewReplayDevice(scripts)
		d.Init(self, neighbors, input)
		return d
	}
}

// Init records the node identity and lays the scripts out by port.
// Scripts addressed to non-neighbors are dropped, mirroring how a faulty
// node can only exhibit behavior on its actual outedges.
func (d *ReplayDevice) Init(self string, neighbors []string, input Input) {
	d.self = self
	nbs := append([]string(nil), neighbors...)
	slices.Sort(nbs)
	allowed := make(map[string]bool, len(nbs))
	for _, nb := range nbs {
		allowed[nb] = true
	}
	for nb := range d.scripts {
		if !allowed[nb] {
			delete(d.scripts, nb)
		}
	}
	d.ports, d.out, d.suffix = nil, nil, ""
	if len(d.scripts) > 0 {
		d.ports = make([][]Payload, len(nbs))
		for i, nb := range nbs {
			d.ports[i] = d.scripts[nb]
		}
	}
}

// Step plays round r of every script, ignoring the inbox entirely.
func (d *ReplayDevice) Step(round int, inbox Inbox) Outbox {
	d.round = round + 1
	if d.ports == nil {
		return nil
	}
	if d.out == nil {
		d.out = make(Outbox, len(d.ports))
	}
	for i, seq := range d.ports {
		d.out[i] = None
		if round < len(seq) {
			d.out[i] = seq[round]
		}
	}
	return d.out
}

// Snapshot encodes the replay position and the scripted neighbors
// (canonical order). Only the position changes from round to round, so
// the neighbor tail is joined once, on the first call: runs that record
// no snapshots never pay for it.
func (d *ReplayDevice) Snapshot() string {
	if d.suffix == "" && len(d.scripts) > 0 {
		nbs := make([]string, 0, len(d.scripts))
		for nb := range d.scripts {
			nbs = append(nbs, nb)
		}
		sort.Strings(nbs)
		d.suffix = ";" + strings.Join(nbs, ";")
	}
	return "replay@" + strconv.Itoa(d.round) + d.suffix
}

// Output never decides: a faulty node's "choice" is irrelevant to every
// correctness condition.
func (d *ReplayDevice) Output() (Decision, bool) { return Decision{}, false }

// DeviceFingerprint canonically encodes the post-Init scripts — a replay
// device's behavior is its script content, nothing else — making spliced
// G-systems content-addressable. It runs before every cache lookup of a
// spliced system, so it writes the decimal lengths itself, into one
// buffer grown up front.
func (d *ReplayDevice) DeviceFingerprint() string {
	nbs := make([]string, 0, len(d.scripts))
	total := 0
	for nb, seq := range d.scripts {
		nbs = append(nbs, nb)
		total += len(nb) + 8
		for _, p := range seq {
			total += len(p) + 8
		}
	}
	sort.Strings(nbs)
	var b strings.Builder
	b.Grow(len("replay") + total)
	b.WriteString("replay")
	var num [20]byte
	for _, nb := range nbs {
		seq := d.scripts[nb]
		b.WriteByte('|')
		b.Write(strconv.AppendInt(num[:0], int64(len(nb)), 10))
		b.WriteByte(':')
		b.WriteString(nb)
		b.WriteByte(':')
		b.Write(strconv.AppendInt(num[:0], int64(len(seq)), 10))
		for _, p := range seq {
			b.WriteByte(',')
			b.Write(strconv.AppendInt(num[:0], int64(len(p)), 10))
			b.WriteByte(':')
			b.WriteString(string(p))
		}
	}
	return b.String()
}
