package byzantine

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"flm/internal/sim"
)

// This file provides the panel of candidate agreement devices that the
// impossibility engine defeats on inadequate graphs. Each is a plausible
// deterministic strategy; Theorem 1 says none can work, and the engine
// exhibits the broken behavior chain for each.

// NewOwnInput returns a device that decides its own input at the given
// round, broadcasting nothing of consequence. It trivially satisfies
// validity and trivially violates agreement on mixed inputs — the engine
// catches it in the mixed scenario E2.
func NewOwnInput(decideRound int) sim.Builder {
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		return &simpleDevice{
			self: self, nbs: sortedCopy(neighbors), input: boolOrDefault(string(input)),
			decideRound: decideRound, kind: "own",
			decide: func(d *simpleDevice) string { return d.input },
		}
	}
}

// NewConstant returns a device that always decides the given value. It
// satisfies agreement and violates validity in the unanimous run of the
// other value.
func NewConstant(value string, decideRound int) sim.Builder {
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		return &simpleDevice{
			self: self, nbs: sortedCopy(neighbors), input: boolOrDefault(string(input)),
			decideRound: decideRound, kind: "const" + value,
			decide: func(d *simpleDevice) string { return value },
		}
	}
}

// NewMajority returns the natural voting device: broadcast the input,
// re-broadcast the latest view each round, and decide the majority of the
// final view (own value plus the last value heard from each neighbor;
// ties to DefaultValue). On the triangle with one Byzantine node this is
// the textbook victim of the hexagon argument.
func NewMajority(decideRound int) sim.Builder {
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		d := &simpleDevice{
			self: self, nbs: sortedCopy(neighbors), input: boolOrDefault(string(input)),
			decideRound: decideRound, kind: "maj",
		}
		d.view = map[string]string{self: d.input}
		d.decide = func(d *simpleDevice) string { return majorityOfView(d.view) }
		return d
	}
}

// NewEcho returns a two-phase voting device: round 0 broadcast input;
// round 1 broadcast the full view ("echo"); decision is the majority over
// all first-hand and second-hand reports. A step smarter than NewMajority
// — and equally doomed on inadequate graphs.
func NewEcho(decideRound int) sim.Builder {
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		d := &simpleDevice{
			self: self, nbs: sortedCopy(neighbors), input: boolOrDefault(string(input)),
			decideRound: decideRound, kind: "echo",
		}
		d.view = map[string]string{self: d.input}
		d.echoes = map[string]string{}
		d.decide = func(d *simpleDevice) string {
			all := map[string]string{}
			for k, v := range d.view {
				all[k] = v
			}
			for k, v := range d.echoes {
				all[k] = v
			}
			return majorityOfView(all)
		}
		return d
	}
}

// NewSeededMajority returns a majority device whose tie-break is a
// pseudo-random coin derived from the seed and the node name. Treating
// the seed as part of the device keeps the system deterministic, which is
// exactly how FLM85's Section 3 remark folds nondeterministic algorithms
// into the impossibility proofs: for every resolution of the coin flips
// the same covering argument applies.
func NewSeededMajority(seed int64, decideRound int) sim.Builder {
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		h := fnv.New64a()
		h.Write([]byte(self))
		coin := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
		d := &simpleDevice{
			self: self, nbs: sortedCopy(neighbors), input: boolOrDefault(string(input)),
			decideRound: decideRound, kind: fmt.Sprintf("seededmaj%d", seed),
		}
		d.view = map[string]string{self: d.input}
		d.decide = func(d *simpleDevice) string {
			zero, one := 0, 0
			for _, v := range d.view {
				if v == "1" {
					one++
				} else {
					zero++
				}
			}
			switch {
			case one > zero:
				return "1"
			case zero > one:
				return "0"
			default:
				return EncodeCoin(coin.Intn(2))
			}
		}
		return d
	}
}

// EncodeCoin encodes a coin flip as a canonical boolean value.
func EncodeCoin(c int) string {
	if c == 1 {
		return "1"
	}
	return "0"
}

func sortedCopy(s []string) []string {
	c := append([]string(nil), s...)
	sort.Strings(c)
	return c
}

func majorityOfView(view map[string]string) string {
	zero, one := 0, 0
	for _, v := range view {
		switch v {
		case "1":
			one++
		default:
			zero++
		}
	}
	if one > zero {
		return "1"
	}
	return DefaultValue
}

// simpleDevice is the shared chassis for the naive devices: it gossips
// its view every round and decides via the plugged-in rule at
// decideRound.
type simpleDevice struct {
	self        string
	nbs         []string
	input       string
	kind        string
	decideRound int
	view        map[string]string // first-hand: sender -> value
	echoes      map[string]string // second-hand: "witness:subject" -> value
	decide      func(*simpleDevice) string
	decided     bool
	decision    string
	out         sim.Outbox
	snap        string // last Snapshot; "" once Init or Step changes the state
}

var _ sim.Device = (*simpleDevice)(nil)
var _ sim.Fingerprinter = (*simpleDevice)(nil)

// DeviceFingerprint identifies the chassis by its kind string — which
// already encodes the variant and every constructor parameter, including
// seeds — plus the decide round. The decide closure is determined by the
// kind, so this is the full constructor identity.
func (d *simpleDevice) DeviceFingerprint() string {
	return fmt.Sprintf("byz/simple:%s@%d", d.kind, d.decideRound)
}

func (d *simpleDevice) Init(self string, neighbors []string, input sim.Input) {
	d.self = self
	d.nbs = sortedCopy(neighbors)
	d.input = boolOrDefault(string(input))
	if d.view != nil {
		d.view = map[string]string{self: d.input}
	}
	if d.echoes != nil {
		d.echoes = map[string]string{}
	}
	d.snap = ""
}

func (d *simpleDevice) Step(round int, inbox sim.Inbox) sim.Outbox {
	for i, p := range inbox {
		if p != sim.None {
			d.ingest(d.nbs[i], p, round)
		}
	}
	if !d.decided && round >= d.decideRound {
		d.decided = true
		d.decision = d.decide(d)
		d.snap = ""
	}
	d.out = sim.Broadcast(d.out, len(d.nbs), d.message(round))
	return d.out
}

// message is "v" in round 0 and the canonical view afterwards.
func (d *simpleDevice) message(round int) sim.Payload {
	if round == 0 || d.view == nil {
		return sim.Payload(d.input)
	}
	keys := make([]string, 0, len(d.view))
	for k := range d.view {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + d.view[k]
	}
	return sim.Payload(strings.Join(parts, ";"))
}

func (d *simpleDevice) ingest(sender string, payload sim.Payload, round int) {
	if d.view == nil {
		return
	}
	s := string(payload)
	if !strings.Contains(s, "=") {
		// First-hand value.
		d.put(d.view, sender, boolOrDefault(s))
		return
	}
	for _, part := range strings.Split(s, ";") {
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			continue
		}
		subject, v := part[:eq], boolOrDefault(part[eq+1:])
		if subject == sender {
			d.put(d.view, sender, v)
		} else if d.echoes != nil {
			d.put(d.echoes, sender+":"+subject, v)
		}
	}
}

// put sets m[k] = v, dropping the Snapshot memo only when the entry
// changes: views and echoes settle after a few rounds, and a gossip round
// that repeats them leaves the state as it was.
func (d *simpleDevice) put(m map[string]string, k, v string) {
	if old, ok := m[k]; !ok || old != v {
		m[k] = v
		d.snap = ""
	}
}

// Snapshot encodes the state once per change; repeats return the same
// string.
func (d *simpleDevice) Snapshot() string {
	if d.snap != "" {
		return d.snap
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s(in=%s,dec=%v:%s)", d.kind, d.input, d.decided, d.decision)
	appendMap := func(m map[string]string) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "|%s=%s", k, m[k])
		}
	}
	if d.view != nil {
		appendMap(d.view)
	}
	if d.echoes != nil {
		b.WriteString("||")
		appendMap(d.echoes)
	}
	d.snap = b.String()
	return d.snap
}

func (d *simpleDevice) Output() (sim.Decision, bool) {
	if !d.decided {
		return sim.Decision{}, false
	}
	return sim.Decision{Value: d.decision}, true
}
