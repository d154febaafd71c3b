package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"flm/internal/graph"
	"flm/internal/sim"
)

// Theorem 1 quantifies over ALL devices. These tests approximate the
// universal quantifier by drawing random deterministic devices — the
// decision and even the message traffic are seeded hash functions of the
// full local transcript — and asserting the engine defeats every single
// one. A bug in the splice machinery would eventually let some oddball
// device slip through.

// tableDevice is a random deterministic device: each round it sends a
// seeded digest of everything it has seen, and at decideRound it decides
// a seeded hash bit of its transcript.
type tableDevice struct {
	self        string
	nbs         []string
	input       string
	seed        uint64
	transcript  []string
	decideRound int
	chatty      bool // whether messages depend on the transcript
	decided     bool
	decision    string
}

var _ sim.Device = (*tableDevice)(nil)

func newTableDevice(seed uint64, decideRound int, chatty bool) sim.Builder {
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		d := &tableDevice{seed: seed, decideRound: decideRound, chatty: chatty}
		d.Init(self, neighbors, input)
		return d
	}
}

func (d *tableDevice) Init(self string, neighbors []string, input sim.Input) {
	d.self = self
	d.nbs = append([]string(nil), neighbors...)
	sort.Strings(d.nbs)
	d.input = string(input)
	d.transcript = []string{"in:" + d.input}
}

func (d *tableDevice) hash(parts ...string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|", d.seed)
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func (d *tableDevice) Step(round int, inbox sim.Inbox) sim.Outbox {
	for i, p := range inbox {
		if p != sim.None {
			d.transcript = append(d.transcript, fmt.Sprintf("r%d:%s:%s", round, d.nbs[i], p))
		}
	}
	if !d.decided && round >= d.decideRound {
		d.decided = true
		// The decision is a hash bit of the transcript — except that a
		// device with any shot at validity must decide its own input
		// when it never heard disagreement; mix that in to keep the
		// device family "plausible" rather than trivially invalid.
		if d.sawOnly(d.input) {
			d.decision = d.input
		} else {
			d.decision = fmt.Sprint(d.hash(d.transcript...) % 2)
		}
	}
	out := make(sim.Outbox, len(d.nbs))
	for i, nb := range d.nbs {
		if d.chatty {
			out[i] = sim.Payload(fmt.Sprintf("%x", d.hash(append([]string{nb}, d.transcript...)...)))
		} else {
			out[i] = sim.Payload(d.input)
		}
	}
	return out
}

// sawOnly reports whether every payload fragment mentioning a value
// matched v (an approximation of "no disagreement observed").
func (d *tableDevice) sawOnly(v string) bool {
	for _, entry := range d.transcript[1:] {
		if !strings.HasSuffix(entry, ":"+v) && !d.chatty {
			return false
		}
		if d.chatty {
			return false // chatty devices never get the validity shortcut
		}
	}
	return true
}

func (d *tableDevice) Snapshot() string {
	return fmt.Sprintf("table(%d,dec=%v:%s)|%s", d.seed, d.decided, d.decision, strings.Join(d.transcript, "~"))
}

func (d *tableDevice) Output() (sim.Decision, bool) {
	if !d.decided {
		return sim.Decision{}, false
	}
	return sim.Decision{Value: d.decision}, true
}

// Every random quiet device (echoing its input, hash decision) is
// defeated on the triangle.
func TestUniversalQuietDevicesDefeated(t *testing.T) {
	g := graph.Triangle()
	prop := func(seed uint64, roundRaw uint8) bool {
		decideRound := 1 + int(roundRaw)%3
		builder := newTableDevice(seed, decideRound, false)
		cr, err := ByzantineTriangle(uniformBuilders(g, builder),
			fmt.Sprintf("table-%d", seed), decideRound+3)
		return err == nil && cr.Contradicted()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Every random chatty device (hash-of-transcript traffic, per-neighbor
// distinct payloads) is defeated too — the splice machinery handles
// arbitrary message content.
func TestUniversalChattyDevicesDefeated(t *testing.T) {
	g := graph.Triangle()
	prop := func(seed uint64, roundRaw uint8) bool {
		decideRound := 1 + int(roundRaw)%3
		builder := newTableDevice(seed, decideRound, true)
		cr, err := ByzantineTriangle(uniformBuilders(g, builder),
			fmt.Sprintf("chatty-%d", seed), decideRound+3)
		return err == nil && cr.Contradicted()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Heterogeneous assignments: a different random device at each triangle
// node. Theorem 1's devices A, B, C need not be identical.
func TestUniversalHeterogeneousDevicesDefeated(t *testing.T) {
	prop := func(s1, s2, s3 uint64) bool {
		builders := map[string]sim.Builder{
			"a": newTableDevice(s1, 2, s1%2 == 0),
			"b": newTableDevice(s2, 1+int(s2%3), s2%2 == 0),
			"c": newTableDevice(s3, 2, s3%2 == 0),
		}
		cr, err := ByzantineTriangle(builders, "hetero", 8)
		return err == nil && cr.Contradicted()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// The same sweep on the diamond's connectivity argument.
func TestUniversalDevicesDefeatedOnDiamond(t *testing.T) {
	g := graph.Diamond()
	prop := func(seed uint64) bool {
		builder := newTableDevice(seed, 2, seed%2 == 0)
		cr, err := ByzantineDiamond(uniformBuilders(g, builder),
			fmt.Sprintf("table-%d", seed), 8)
		return err == nil && cr.Contradicted()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// And on the simple approximate agreement hexagon, with real-valued
// decisions derived from the hash.
func TestUniversalDevicesDefeatedOnApprox(t *testing.T) {
	g := graph.Triangle()
	prop := func(seed uint64) bool {
		builder := func(self string, neighbors []string, input sim.Input) sim.Device {
			d := &tableDevice{seed: seed, decideRound: 2, chatty: false}
			d.Init(self, neighbors, input)
			return d
		}
		cr, err := SimpleApproxTriangle(uniformBuilders(g, builder),
			fmt.Sprintf("table-%d", seed), 8)
		if err != nil {
			// Non-numeric decisions are termination violations inside the
			// chain, not engine errors; any error here is a real bug.
			return false
		}
		return cr.Contradicted()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
