// Package signed mechanizes the paper's remark on the Fault axiom: "When
// this axiom is significantly weakened (say, by adding an unforgeable
// signature assumption), then consensus is possible [LSP,PSL]."
//
// A Registry models an unforgeable signature scheme for one execution:
// Sign records that a named node vouched for a statement, and Verify
// accepts only statements actually signed in this execution. A Byzantine
// node can sign anything with its own identity (including conflicting
// statements — equivocation), but cannot produce a correct node's
// signature on something that node never said, and — decisively for the
// FLM85 covering argument — cannot replay signatures harvested from a
// different execution, because the new execution's registry never
// recorded them. The paper's Fault-axiom device F_A(E_1,...,E_d) is
// exactly such a replayer, so the covering argument's splice fails its
// own self-check, and Dolev-Strong agreement runs happily on the triangle
// that Theorem 1 proves hopeless for unsigned devices.
//
// The protocol implemented is Dolev-Strong authenticated broadcast
// (f+1 rounds, any n) run in parallel from every node, with the majority
// of the agreed vector as the decision — Byzantine agreement for
// n >= 2f+1 with signatures.
package signed

import (
	"fmt"
	"sort"
	"strings"

	"flm/internal/sim"
)

// Registry records which statements each identity signed during one
// execution. It is not safe for concurrent use; the simulator is
// sequential.
type Registry struct {
	signed map[string]bool
}

// NewRegistry returns an empty signature registry for one execution.
func NewRegistry() *Registry {
	return &Registry{signed: make(map[string]bool)}
}

func key(name, statement string) string { return name + "\x00" + statement }

// Sign records that name vouches for statement.
func (r *Registry) Sign(name, statement string) {
	r.signed[key(name, statement)] = true
}

// Verify reports whether name signed statement in this execution.
func (r *Registry) Verify(name, statement string) bool {
	return r.signed[key(name, statement)]
}

// chain is one Dolev-Strong signature chain: a value vouched for by an
// ordered list of distinct signers, the first being the instance's
// sender. The statement signed by signer k is
// "sender|value|signer_1,...,signer_k".
type chain struct {
	sender  string
	value   string
	signers []string
}

func statement(sender, value string, signers []string) string {
	return sender + "|" + value + "|" + strings.Join(signers, ",")
}

func (c chain) encode() string {
	return statement(c.sender, c.value, c.signers)
}

// decodeChain parses and cryptographically verifies a chain against the
// registry: distinct signers, first equals sender, and every prefix
// statement carries a recorded signature.
func decodeChain(reg *Registry, s string) (chain, bool) {
	parts := strings.Split(s, "|")
	if len(parts) != 3 {
		return chain{}, false
	}
	c := chain{sender: parts[0], value: parts[1]}
	if c.value != "0" && c.value != "1" {
		return chain{}, false
	}
	if parts[2] == "" {
		return chain{}, false
	}
	c.signers = strings.Split(parts[2], ",")
	if c.signers[0] != c.sender {
		return chain{}, false
	}
	seen := make(map[string]bool, len(c.signers))
	for i, name := range c.signers {
		if name == "" || seen[name] {
			return chain{}, false
		}
		seen[name] = true
		if !reg.Verify(name, statement(c.sender, c.value, c.signers[:i+1])) {
			return chain{}, false
		}
	}
	return c, true
}

// extend appends name's signature, recording it in the registry.
func (c chain) extend(reg *Registry, name string) chain {
	out := chain{sender: c.sender, value: c.value, signers: append(append([]string(nil), c.signers...), name)}
	reg.Sign(name, statement(out.sender, out.value, out.signers))
	return out
}

// dsDevice runs n parallel Dolev-Strong broadcast instances (one per
// peer) and decides the majority of the extracted vector.
type dsDevice struct {
	reg       *Registry
	self      string
	peers     []string
	neighbors []string
	f         int
	input     string
	extracted map[string]map[string]bool // sender -> set of extracted values
	relayQ    []chain
	decided   bool
	decision  string
}

var _ sim.Device = (*dsDevice)(nil)

// NewDolevStrong returns a builder for signed Byzantine agreement devices
// tolerating f faults among peers (n >= 2f+1 for the majority step; the
// per-instance broadcasts are correct for any n). All devices of one
// execution must share the registry.
func NewDolevStrong(f int, peers []string, reg *Registry) sim.Builder {
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		d := &dsDevice{reg: reg, f: f, peers: sorted}
		d.Init(self, neighbors, input)
		return d
	}
}

// Rounds returns the simulator rounds a Dolev-Strong run needs: chains
// circulate in rounds 0..f+1 and the decision lands when round f+1's
// arrivals are absorbed.
func Rounds(f int) int { return f + 2 }

func (d *dsDevice) Init(self string, neighbors []string, input sim.Input) {
	d.self = self
	d.neighbors = append([]string(nil), neighbors...)
	sort.Strings(d.neighbors)
	d.input = "0"
	if string(input) == "1" {
		d.input = "1"
	}
	d.extracted = make(map[string]map[string]bool, len(d.peers))
	for _, p := range d.peers {
		d.extracted[p] = make(map[string]bool, 2)
	}
	d.relayQ = nil
	d.decided = false
}

func (d *dsDevice) Step(round int, inbox sim.Inbox) sim.Outbox {
	if d.decided {
		return nil
	}
	if round == 0 {
		// Start our own instance: sign and broadcast the input.
		c := chain{sender: d.self, value: d.input}.extend(d.reg, d.self)
		d.extracted[d.self][d.input] = true
		return d.broadcastChains([]chain{c})
	}
	// Absorb arrivals: a chain is accepted at round r only with at least
	// r signatures (the Dolev-Strong timing rule) and at most f+1.
	var fresh []chain
	for _, p := range inbox {
		if p == sim.None {
			continue
		}
		for _, frag := range strings.Split(string(p), "&") {
			c, ok := decodeChain(d.reg, frag)
			if !ok || len(c.signers) < round || len(c.signers) > d.f+1 {
				continue
			}
			vals, known := d.extracted[c.sender]
			if !known || vals[c.value] {
				continue
			}
			if len(vals) >= 2 {
				continue // already exposed as two-faced; nothing changes
			}
			vals[c.value] = true
			// Relay with our signature while relaying still helps.
			if round <= d.f && !contains(c.signers, d.self) {
				fresh = append(fresh, c.extend(d.reg, d.self))
			}
		}
	}
	if round == d.f+1 {
		d.decide()
		return nil
	}
	return d.broadcastChains(fresh)
}

func contains(list []string, name string) bool {
	for _, x := range list {
		if x == name {
			return true
		}
	}
	return false
}

func (d *dsDevice) broadcastChains(chains []chain) sim.Outbox {
	if len(chains) == 0 {
		return nil
	}
	frags := make([]string, len(chains))
	for i, c := range chains {
		frags[i] = c.encode()
	}
	sort.Strings(frags)
	return sim.Broadcast(nil, len(d.neighbors), sim.Payload(strings.Join(frags, "&")))
}

// decide resolves each instance (exactly one extracted value, else the
// default) and takes the majority of the vector.
func (d *dsDevice) decide() {
	count := map[string]int{}
	for _, p := range d.peers {
		v := "0" // default for silent or two-faced senders
		if vals := d.extracted[p]; len(vals) == 1 {
			for only := range vals {
				v = only
			}
		}
		count[v]++
	}
	d.decision = "0"
	if count["1"] > count["0"] {
		d.decision = "1"
	}
	d.decided = true
}

func (d *dsDevice) Snapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ds(f=%d,in=%s,dec=%v:%s)", d.f, d.input, d.decided, d.decision)
	for _, p := range d.peers {
		vals := d.extracted[p]
		keys := make([]string, 0, len(vals))
		for v := range vals {
			keys = append(keys, v)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "|%s=%s", p, strings.Join(keys, ""))
	}
	return b.String()
}

func (d *dsDevice) Output() (sim.Decision, bool) {
	if !d.decided {
		return sim.Decision{}, false
	}
	return sim.Decision{Value: d.decision}, true
}
