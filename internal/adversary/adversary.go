// Package adversary provides Byzantine fault strategies for attacking
// consensus protocols in the simulator. The fundamental strategy — the
// paper's Fault-axiom device F_A(E_1,...,E_d) — lives in sim.ReplayDevice;
// this package adds the strategies used to stress the possibility side of
// the reproduction: crash and omission failures, seeded random noise, and
// equivocators assembled from honest devices (a faulty node running one
// honest brain per audience, the classic "two-faced general").
//
// All strategies are deterministic given their parameters, preserving the
// model's determinism assumption.
package adversary

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"flm/internal/sim"
)

// Silent returns a builder for a device that never sends anything — the
// simplest omission failure.
func Silent() sim.Builder {
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		return sim.NewReplayDevice(nil)
	}
}

// crashDevice behaves like its inner device until crashRound, then stops
// sending forever (fail-stop).
type crashDevice struct {
	inner      sim.Device
	crashRound int
}

var _ sim.Device = (*crashDevice)(nil)
var _ sim.Fingerprinter = (*crashDevice)(nil)

// DeviceFingerprint is the crash round plus the inner device's identity
// ("" when the inner device is not fingerprintable).
func (d *crashDevice) DeviceFingerprint() string {
	inner := sim.FingerprintOf(d.inner)
	if inner == "" {
		return ""
	}
	return fmt.Sprintf("adv/crash@%d|%s", d.crashRound, inner)
}

// Crash wraps a builder so the resulting device fail-stops at the given
// round (messages from that round on are suppressed).
func Crash(inner sim.Builder, crashRound int) sim.Builder {
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		return &crashDevice{inner: inner(self, neighbors, input), crashRound: crashRound}
	}
}

func (d *crashDevice) Init(self string, neighbors []string, input sim.Input) {
	d.inner.Init(self, neighbors, input)
}

func (d *crashDevice) Step(round int, inbox sim.Inbox) sim.Outbox {
	out := d.inner.Step(round, inbox)
	if round >= d.crashRound {
		return nil
	}
	return out
}

func (d *crashDevice) Snapshot() string {
	return fmt.Sprintf("crash@%d|%s", d.crashRound, d.inner.Snapshot())
}

func (d *crashDevice) Output() (sim.Decision, bool) { return sim.Decision{}, false }

// omissionDevice drops messages to a fixed subset of neighbors.
type omissionDevice struct {
	inner sim.Device
	drop  map[string]bool
	//flmlint:allow flmfingerprint drop (hashed) laid out over the neighbor list (keyed)
	dropPort []bool // drop by port
	out      sim.Outbox
}

var _ sim.Device = (*omissionDevice)(nil)
var _ sim.Fingerprinter = (*omissionDevice)(nil)

// DeviceFingerprint is the sorted drop set plus the inner device's
// identity ("" when the inner device is not fingerprintable).
func (d *omissionDevice) DeviceFingerprint() string {
	inner := sim.FingerprintOf(d.inner)
	if inner == "" {
		return ""
	}
	keys := make([]string, 0, len(d.drop))
	for k := range d.drop {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return fmt.Sprintf("adv/omit[%s]|%s", strings.Join(keys, ","), inner)
}

// Omission wraps a builder so messages to the listed neighbors are
// silently dropped.
func Omission(inner sim.Builder, dropTo ...string) sim.Builder {
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		drop := make(map[string]bool, len(dropTo))
		for _, nb := range dropTo {
			drop[nb] = true
		}
		nbs := sortedCopy(neighbors)
		dropPort := make([]bool, len(nbs))
		for i, nb := range nbs {
			dropPort[i] = drop[nb]
		}
		return &omissionDevice{inner: inner(self, neighbors, input), drop: drop, dropPort: dropPort}
	}
}

func (d *omissionDevice) Init(self string, neighbors []string, input sim.Input) {
	d.inner.Init(self, neighbors, input)
}

func (d *omissionDevice) Step(round int, inbox sim.Inbox) sim.Outbox {
	out := d.inner.Step(round, inbox)
	if out == nil {
		return nil
	}
	if d.out == nil {
		d.out = make(sim.Outbox, len(out))
	}
	for i, p := range out {
		if d.dropPort[i] {
			p = sim.None
		}
		d.out[i] = p
	}
	return d.out
}

func (d *omissionDevice) Snapshot() string {
	keys := make([]string, 0, len(d.drop))
	for k := range d.drop {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return fmt.Sprintf("omit[%s]|%s", strings.Join(keys, ","), d.inner.Snapshot())
}

func (d *omissionDevice) Output() (sim.Decision, bool) { return sim.Decision{}, false }

// equivocator runs two honest inner devices with different inputs and
// routes each neighbor's traffic to one of them — the two-faced general.
// Both brains receive the full inbox, so each believes it is an honest
// participant.
type equivocator struct {
	brainA, brainB sim.Device
	aIn, bIn       sim.Input
	nbs            []string // sorted: the port order
	useB           []bool   // by port: whether that neighbor sees brain B
	out            sim.Outbox
}

var _ sim.Device = (*equivocator)(nil)
var _ sim.Fingerprinter = (*equivocator)(nil)

// DeviceFingerprint captures both brains' identities, the inputs they
// were built with (which differ from the node's system-level input the
// execution cache keys on), and the realized audience split — the faceB
// predicate's only observable effect.
func (d *equivocator) DeviceFingerprint() string {
	fpA, fpB := sim.FingerprintOf(d.brainA), sim.FingerprintOf(d.brainB)
	if fpA == "" || fpB == "" {
		return ""
	}
	split := make([]string, 0, len(d.nbs))
	for i, nb := range d.nbs {
		if d.useB[i] {
			split = append(split, nb)
		}
	}
	return fmt.Sprintf("adv/equiv[%s]a=%q:%s|b=%q:%s",
		strings.Join(split, ","), string(d.aIn), fpA, string(d.bIn), fpB)
}

// Equivocate builds a two-faced device: neighbors for which faceB returns
// true see an honest device with input b; all others see an honest device
// with input a.
func Equivocate(inner sim.Builder, a, b sim.Input, faceB func(neighbor string) bool) sim.Builder {
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		d := &equivocator{
			brainA: inner(self, neighbors, a),
			brainB: inner(self, neighbors, b),
			aIn:    a,
			bIn:    b,
			nbs:    sortedCopy(neighbors),
		}
		d.useB = make([]bool, len(d.nbs))
		for i, nb := range d.nbs {
			d.useB[i] = faceB(nb)
		}
		return d
	}
}

func (d *equivocator) Init(self string, neighbors []string, input sim.Input) {
	// Brains were initialized at construction with their own inputs.
}

func (d *equivocator) Step(round int, inbox sim.Inbox) sim.Outbox {
	outA := d.brainA.Step(round, inbox)
	outB := d.brainB.Step(round, inbox)
	if outA == nil && outB == nil {
		return nil
	}
	if d.out == nil {
		d.out = make(sim.Outbox, len(d.nbs))
	}
	for i, b := range d.useB {
		face := outA
		if b {
			face = outB
		}
		d.out[i] = sim.None
		if face != nil {
			d.out[i] = face[i]
		}
	}
	return d.out
}

func (d *equivocator) Snapshot() string {
	return "equiv|" + d.brainA.Snapshot() + "|" + d.brainB.Snapshot()
}

func (d *equivocator) Output() (sim.Decision, bool) { return sim.Decision{}, false }

// noiseDevice sends seeded pseudo-random boolean payloads to every
// neighbor every round. Deterministic for a fixed (seed, self) pair.
type noiseDevice struct {
	//flmlint:allow flmfingerprint topology is keyed by the graph hash, not the device
	neighbors []string
	rng       *rand.Rand
	seed      int64 // builder seed, pre node-name mixing (fingerprint identity)
	round     int
	alphabet  []sim.Payload
	out       sim.Outbox
}

var _ sim.Device = (*noiseDevice)(nil)
var _ sim.Fingerprinter = (*noiseDevice)(nil)

// DeviceFingerprint is the builder seed and alphabet; the per-node rng
// stream is a deterministic function of these plus the node name, which
// the execution cache keys separately. Valid only pre-execution — the
// cache computes keys before round 0, so the advancing rng state never
// leaks into an identity.
func (d *noiseDevice) DeviceFingerprint() string {
	parts := make([]string, len(d.alphabet))
	for i, p := range d.alphabet {
		parts[i] = fmt.Sprintf("%d:%s", len(p), p)
	}
	return fmt.Sprintf("adv/noise:seed=%d,alpha=%s", d.seed, strings.Join(parts, ","))
}

// Noise returns a builder for a device babbling pseudo-random payloads
// drawn from the alphabet (default {"0","1"} if none given).
func Noise(seed int64, alphabet ...sim.Payload) sim.Builder {
	if len(alphabet) == 0 {
		alphabet = []sim.Payload{"0", "1"}
	}
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		h := fnv.New64a()
		h.Write([]byte(self))
		d := &noiseDevice{
			neighbors: sortedCopy(neighbors),
			rng:       rand.New(rand.NewSource(seed ^ int64(h.Sum64()))),
			seed:      seed,
			alphabet:  alphabet,
		}
		return d
	}
}

func (d *noiseDevice) Init(self string, neighbors []string, input sim.Input) {}

func (d *noiseDevice) Step(round int, inbox sim.Inbox) sim.Outbox {
	if d.out == nil {
		d.out = make(sim.Outbox, len(d.neighbors))
	}
	for i := range d.out {
		d.out[i] = d.alphabet[d.rng.Intn(len(d.alphabet))]
	}
	d.round = round
	return d.out
}

func (d *noiseDevice) Snapshot() string { return fmt.Sprintf("noise@%d", d.round) }

func (d *noiseDevice) Output() (sim.Decision, bool) { return sim.Decision{}, false }

// mirrorDevice is an adaptive attacker: each round it takes the payloads
// it received and reflects them to *other* neighbors (rotating the
// audience), impersonating relayed traffic without understanding it.
type mirrorDevice struct {
	neighbors []string
	pending   []sim.Payload // last round's inbox, by port
	out       sim.Outbox
	round     int
}

var _ sim.Device = (*mirrorDevice)(nil)
var _ sim.Fingerprinter = (*mirrorDevice)(nil)

// DeviceFingerprint is constant: a mirror has no parameters.
func (d *mirrorDevice) DeviceFingerprint() string { return "adv/mirror" }

// Mirror returns a builder for reflection attackers.
func Mirror() sim.Builder {
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		d := &mirrorDevice{}
		d.Init(self, neighbors, input)
		return d
	}
}

func (d *mirrorDevice) Init(self string, neighbors []string, input sim.Input) {
	d.neighbors = sortedCopy(neighbors)
	d.pending = make([]sim.Payload, len(d.neighbors))
	d.out = nil
}

func (d *mirrorDevice) Step(round int, inbox sim.Inbox) sim.Outbox {
	d.round = round
	n := len(d.neighbors)
	if n == 0 {
		return nil
	}
	if d.out == nil {
		d.out = make(sim.Outbox, n)
	}
	// Send to neighbor i what neighbor i+1 (cyclically) said last round.
	for i := range d.out {
		d.out[i] = d.pending[(i+1)%n]
	}
	clear(d.pending)
	copy(d.pending, inbox)
	return d.out
}

func (d *mirrorDevice) Snapshot() string {
	heard := make([]string, 0, len(d.pending))
	for i, p := range d.pending {
		if p != sim.None {
			heard = append(heard, d.neighbors[i])
		}
	}
	return fmt.Sprintf("mirror@%d[%s]", d.round, strings.Join(heard, ","))
}

func (d *mirrorDevice) Output() (sim.Decision, bool) { return sim.Decision{}, false }

// deadDevice is an initially-dead process: it never takes a step — no
// sends, no decisions, constant state — from before round 0. Unlike a
// crash at round 0 (which still executes its round-0 Step internally),
// a dead node is indistinguishable from a node that was never started,
// which is exactly the FLP Section 4 fault family: failures that happen
// before the protocol begins.
type deadDevice struct{}

var _ sim.Device = deadDevice{}
var _ sim.Fingerprinter = deadDevice{}

// DeviceFingerprint is constant: death has no parameters.
func (deadDevice) DeviceFingerprint() string { return "adv/dead" }

// InitiallyDead returns a builder for a process that fails before the
// protocol starts: it never sends, never decides, and its state never
// changes.
func InitiallyDead() sim.Builder {
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		return deadDevice{}
	}
}

func (deadDevice) Init(self string, neighbors []string, input sim.Input) {}
func (deadDevice) Step(round int, inbox sim.Inbox) sim.Outbox            { return nil }
func (deadDevice) Snapshot() string                                      { return "dead" }
func (deadDevice) Output() (sim.Decision, bool)                          { return sim.Decision{}, false }

func sortedCopy(names []string) []string {
	c := append([]string(nil), names...)
	sort.Strings(c)
	return c
}

// Strategy couples a display name with a way to corrupt a given honest
// builder, so protocol tests can sweep a whole panel.
type Strategy struct {
	Name    string
	Corrupt func(inner sim.Builder) sim.Builder
}

// Panel returns the standard attack panel used by the possibility-side
// experiments. The equivocator splits audiences by neighbor-name hash, so
// every topology gets a nontrivial split.
func Panel(seed int64) []Strategy {
	hashSplit := func(nb string) bool {
		h := fnv.New32a()
		h.Write([]byte(nb))
		return h.Sum32()%2 == 0
	}
	return []Strategy{
		{Name: "silent", Corrupt: func(inner sim.Builder) sim.Builder { return Silent() }},
		{Name: "crash@1", Corrupt: func(inner sim.Builder) sim.Builder { return Crash(inner, 1) }},
		{Name: "crash@2", Corrupt: func(inner sim.Builder) sim.Builder { return Crash(inner, 2) }},
		{Name: "omit-half", Corrupt: func(inner sim.Builder) sim.Builder {
			return func(self string, neighbors []string, input sim.Input) sim.Device {
				var drop []string
				for i, nb := range neighbors {
					if i%2 == 0 {
						drop = append(drop, nb)
					}
				}
				return Omission(inner, drop...)(self, neighbors, input)
			}
		}},
		{Name: "equivocate", Corrupt: func(inner sim.Builder) sim.Builder {
			return Equivocate(inner, sim.BoolInput(false), sim.BoolInput(true), hashSplit)
		}},
		{Name: "noise", Corrupt: func(inner sim.Builder) sim.Builder { return Noise(seed) }},
		{Name: "mirror", Corrupt: func(inner sim.Builder) sim.Builder { return Mirror() }},
	}
}
