// Package byzantine implements Byzantine agreement devices: the
// exponential-information-gathering (EIG) protocol of Pease, Shostak and
// Lamport (optimal: n >= 3f+1, f+1 communication rounds), the polynomial
// phase-king protocol of Berman and Garay (n >= 4f+1), and a panel of
// naive devices that the FLM85 impossibility engine defeats on inadequate
// graphs. It also provides the Byzantine agreement correctness conditions
// as checkable predicates.
package byzantine

import (
	"fmt"
	"sort"
	"strings"

	"flm/internal/sim"
)

// DefaultValue is the value adopted on ties and missing data; any fixed
// value works for the agreement proofs.
const DefaultValue = "0"

// NewEIG returns a builder for EIG devices tolerating f faults among the
// given peer set (which must include every node of the complete
// communication graph, including the device's own node).
//
// The builder hoists everything fixed across a sweep: the sorted peer
// set, the device fingerprint, and the flat tree shape (level offsets,
// interned label strings, per-slot membership masks), all shared by every
// device it constructs. Peer sets the flat representation cannot index
// (see eigShapeFor) fall back to the map-based reference device, which is
// observably identical.
func NewEIG(f int, peers []string) sim.Builder {
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	fp := fmt.Sprintf("byz/eig:f=%d,peers=%s", f, strings.Join(sorted, ","))
	shape := eigShapeFor(f, sorted, fp)
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		nbs := sortedNames(neighbors)
		if shape != nil {
			if idx, ok := shape.index[self]; ok {
				d := &eigFlatDevice{shape: shape, selfIdx: idx}
				d.init(self, nbs, input)
				return d
			}
		}
		d := &eigMapDevice{f: f, peers: sorted, fp: fp}
		d.init(self, nbs, input)
		return d
	}
}

// sortedNames returns a sorted copy of names without re-sorting input
// that is already ordered — the simulator always hands builders sorted
// neighbor lists, so device construction inside a sweep skips the
// redundant sort.
func sortedNames(names []string) []string {
	out := append([]string(nil), names...)
	if !sort.StringsAreSorted(out) {
		sort.Strings(out)
	}
	return out
}

// eigMapDevice is the reference EIG implementation with the tree stored
// as a map keyed by "j1/j2/.../jr" labels. The device builds the EIG tree
// over f+1 relay levels: level-r labels are sequences of r distinct
// process names, and val(σ·j) is what j reported for label σ. After the
// final level it resolves the tree bottom-up by strict majority and
// decides the root value.
//
// The hot path uses eigFlatDevice, which stores the same tree in a
// contiguous slice; this device remains as the fallback for peer sets the
// flat shape cannot index and as the oracle for the equivalence property
// test. The two must stay observably identical (Snapshot, Output,
// payloads, DeviceFingerprint).
type eigMapDevice struct {
	self      string
	peers     []string // all process names, sorted (the complete graph)
	neighbors []string
	f         int
	fp        string
	input     string
	val       map[string]string
	decided   bool
	decision  string
	out       sim.Outbox
}

var _ sim.Device = (*eigMapDevice)(nil)
var _ sim.Fingerprinter = (*eigMapDevice)(nil)

// DeviceFingerprint is the constructor identity: fault bound and peer
// set. Everything else the device does is determined by these plus the
// (self, neighbors, input) triple the execution cache keys separately.
func (d *eigMapDevice) DeviceFingerprint() string {
	if d.fp == "" {
		d.fp = fmt.Sprintf("byz/eig:f=%d,peers=%s", d.f, strings.Join(d.peers, ","))
	}
	return d.fp
}

func (d *eigMapDevice) Init(self string, neighbors []string, input sim.Input) {
	d.init(self, sortedNames(neighbors), input)
}

// init takes ownership of the sorted neighbors slice.
func (d *eigMapDevice) init(self string, neighbors []string, input sim.Input) {
	d.self = self
	d.neighbors = neighbors
	d.input = sanitizeValue(string(input))
	d.val = map[string]string{}
	d.decided = false
	d.decision = ""
}

// sanitizeValue keeps values within the claim-encoding alphabet; anything
// containing a delimiter is replaced by the default (a Byzantine sender
// cannot smuggle structure into honest relays).
func sanitizeValue(v string) string {
	if v == "" || strings.ContainsAny(v, ";=/") {
		return DefaultValue
	}
	return v
}

// claimsAtLevel returns this device's level-r claims: (σ, val(σ)) for
// every stored label σ with |σ| = r not containing self.
func (d *eigMapDevice) claimsAtLevel(r int) []string {
	var claims []string
	for label, v := range d.val {
		if labelLen(label) != r || labelContains(label, d.self) {
			continue
		}
		claims = append(claims, label+"="+v)
	}
	sort.Strings(claims)
	return claims
}

func labelLen(label string) int {
	if label == "" {
		return 0
	}
	return strings.Count(label, "/") + 1
}

func labelContains(label, name string) bool {
	if label == "" {
		return false
	}
	for _, part := range strings.Split(label, "/") {
		if part == name {
			return true
		}
	}
	return false
}

func extendLabel(label, name string) string {
	if label == "" {
		return name
	}
	return label + "/" + name
}

// absorb records the claims carried by a round-(level) payload from the
// named sender, storing val(σ·sender) = v for each well-formed claim
// (σ, v) with |σ| = level-1, sender ∉ σ, and all names known.
func (d *eigMapDevice) absorb(sender string, payload sim.Payload, level int) {
	if payload == sim.None {
		return
	}
	for _, claim := range strings.Split(string(payload), ";") {
		eq := strings.IndexByte(claim, '=')
		if eq < 0 {
			continue
		}
		label, v := claim[:eq], sanitizeValue(claim[eq+1:])
		if labelLen(label) != level-1 || labelContains(label, sender) {
			continue
		}
		if label != "" && !d.validLabel(label) {
			continue
		}
		full := extendLabel(label, sender)
		if _, dup := d.val[full]; dup {
			continue // first claim wins; duplicates are Byzantine noise
		}
		d.val[full] = v
	}
}

func (d *eigMapDevice) validLabel(label string) bool {
	seen := map[string]bool{}
	for _, part := range strings.Split(label, "/") {
		if seen[part] || !d.isPeer(part) {
			return false
		}
		seen[part] = true
	}
	return true
}

func (d *eigMapDevice) isPeer(name string) bool {
	i := sort.SearchStrings(d.peers, name)
	return i < len(d.peers) && d.peers[i] == name
}

// Step implements the EIG schedule: Step(0) broadcasts the input (level-1
// claims); Step(r) for 1 <= r <= f absorbs level-r claims and relays
// level-(r+1) claims; Step(f+1) absorbs the final level and decides.
func (d *eigMapDevice) Step(round int, inbox sim.Inbox) sim.Outbox {
	if round > d.f+1 || d.decided {
		if round == d.f+1 && !d.decided {
			d.finishAbsorb(round, inbox)
		}
		return nil
	}
	if round == 0 {
		// Self-delivery of the level-1 claim, then broadcast it.
		d.val[d.self] = d.input
		return d.broadcast(sim.Payload("=" + d.input))
	}
	d.finishAbsorb(round, inbox)
	if round == d.f+1 {
		return nil
	}
	claims := d.claimsAtLevel(round)
	// Self-delivery: our own relays become val(σ·self).
	for _, claim := range claims {
		eq := strings.IndexByte(claim, '=')
		label, v := claim[:eq], claim[eq+1:]
		full := extendLabel(label, d.self)
		if _, dup := d.val[full]; !dup {
			d.val[full] = v
		}
	}
	if len(claims) == 0 {
		return d.broadcast(sim.Payload("-")) // keep traffic shape regular
	}
	return d.broadcast(sim.Payload(strings.Join(claims, ";")))
}

func (d *eigMapDevice) finishAbsorb(round int, inbox sim.Inbox) {
	for i, p := range inbox {
		d.absorb(d.neighbors[i], p, round)
	}
	if round == d.f+1 {
		d.decision = d.resolve("")
		d.decided = true
	}
}

func (d *eigMapDevice) broadcast(p sim.Payload) sim.Outbox {
	d.out = sim.Broadcast(d.out, len(d.neighbors), p)
	return d.out
}

// resolve computes the decision value of a tree label bottom-up: leaves
// (level f+1) resolve to their stored value; internal labels resolve to
// the strict majority of their children, with DefaultValue on ties or
// missing data.
func (d *eigMapDevice) resolve(label string) string {
	if labelLen(label) == d.f+1 {
		if v, ok := d.val[label]; ok {
			return v
		}
		return DefaultValue
	}
	counts := map[string]int{}
	total := 0
	for _, p := range d.peers {
		if labelContains(label, p) {
			continue
		}
		counts[d.resolve(extendLabel(label, p))]++
		total++
	}
	best, bestCount := DefaultValue, 0
	keys := make([]string, 0, len(counts))
	for v := range counts {
		keys = append(keys, v)
	}
	sort.Strings(keys)
	for _, v := range keys {
		if counts[v] > bestCount {
			best, bestCount = v, counts[v]
		}
	}
	if 2*bestCount > total {
		return best
	}
	return DefaultValue
}

// Snapshot canonically encodes the whole EIG tree plus decision status.
func (d *eigMapDevice) Snapshot() string {
	labels := make([]string, 0, len(d.val))
	for l := range d.val {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var b strings.Builder
	fmt.Fprintf(&b, "eig(f=%d,in=%s,dec=%v:%s)", d.f, d.input, d.decided, d.decision)
	for _, l := range labels {
		b.WriteString("|")
		b.WriteString(l)
		b.WriteString("=")
		b.WriteString(d.val[l])
	}
	return b.String()
}

func (d *eigMapDevice) Output() (sim.Decision, bool) {
	if !d.decided {
		return sim.Decision{}, false
	}
	return sim.Decision{Value: d.decision}, true
}

// EIGRounds returns the number of simulator rounds an EIG run needs:
// f+1 communication rounds plus the deciding step.
func EIGRounds(f int) int { return f + 2 }
