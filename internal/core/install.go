// Package core is the FLM85 impossibility engine — the paper's primary
// contribution made executable. Given any deterministic devices that
// claim to solve a consensus problem on an inadequate graph G, the engine
//
//  1. installs the devices on a covering graph S of G (install.go),
//  2. runs S and splices scenarios of the covering run into correct
//     behaviors of G using the Locality and Fault axioms (splice.go),
//  3. evaluates the problem's correctness conditions on each behavior in
//     the chain and reports the condition that breaks (chain.go and the
//     per-theorem files).
//
// At least one condition must break — that is the theorem — and the
// engine fails loudly if its axiom self-checks or the chain logic ever
// find otherwise.
package core

import (
	"fmt"
	"sort"
	"strings"

	"flm/internal/graph"
	"flm/internal/sim"
)

// renamedDevice makes a device built for a node of G run at a node of S.
// Phi preserves neighborhoods, so it maps the S-node's neighbors
// bijectively onto the G-node's; since both devices number their ports
// by sorted neighbor name, the renaming is a fixed permutation of ports,
// and the inner device observes exactly the local world it would see in
// G.
type renamedDevice struct {
	inner sim.Device
	// id is "renamed:" + the inner device's G-identity + the sorted
	// S>G neighbor pairs: what the inner fingerprint cannot see.
	id string
	//flmlint:allow flmfingerprint the permutation is the renaming id hashes, in port form
	toG  []int // S-port -> G-port
	gIn  sim.Inbox
	sOut sim.Outbox
}

var _ sim.Device = (*renamedDevice)(nil)
var _ sim.Fingerprinter = (*renamedDevice)(nil)

func (d *renamedDevice) Init(self string, neighbors []string, input sim.Input) {
	// The inner device was initialized with its G-identity at build time.
}

// Step permutes the S-inbox into G-port order and the inner device's
// G-outbox back into S-port order, in buffers reused across Steps (the
// executor owns the S-inbox and we own the returned S-outbox per the
// Device contract, so neither is retained by anyone between rounds).
func (d *renamedDevice) Step(round int, inbox sim.Inbox) sim.Outbox {
	if d.gIn == nil {
		d.gIn = make(sim.Inbox, len(d.toG))
	}
	for s, p := range inbox {
		d.gIn[d.toG[s]] = p
	}
	gOut := d.inner.Step(round, d.gIn)
	if gOut == nil {
		return nil
	}
	if d.sOut == nil {
		d.sOut = make(sim.Outbox, len(d.toG))
	}
	for s, g := range d.toG {
		d.sOut[s] = gOut[g]
	}
	return d.sOut
}

// DeviceFingerprint is the inner device's fingerprint qualified by the
// G-identity and the neighbor renaming. The inner fingerprint covers
// type and constructor parameters; the G-identity and the renaming pin
// down the (self, neighbors) the inner device was actually built with,
// which for an installed device differ from the S-node the executor
// keys on.
func (d *renamedDevice) DeviceFingerprint() string {
	inner := sim.FingerprintOf(d.inner)
	if inner == "" {
		return ""
	}
	return d.id + "|" + inner
}

// Snapshot is the inner device's snapshot: the installed node is
// behaviorally indistinguishable from its G counterpart, which is the
// whole point of the covering construction.
func (d *renamedDevice) Snapshot() string { return d.inner.Snapshot() }

func (d *renamedDevice) Output() (sim.Decision, bool) { return d.inner.Output() }

// Installation is a covering system: the cover, the installed protocol,
// and the inputs that were assigned to each S-node. Execute instantiates
// fresh devices each time, so an Installation can be run repeatedly.
type Installation struct {
	Cover    *graph.Cover
	Protocol sim.Protocol
	Inputs   map[string]sim.Input // by S-node name
}

// InstallCover assigns to every S-node the device of its G-image (built
// fresh per fiber member, with neighbor names translated) and the given
// per-S-node input. builders is keyed by G-node name, inputs by S-node
// name.
func InstallCover(cover *graph.Cover, builders map[string]sim.Builder, inputs map[string]sim.Input) (*Installation, error) {
	if err := cover.Verify(); err != nil {
		return nil, fmt.Errorf("core: refusing to install on an invalid cover: %w", err)
	}
	s, g := cover.S, cover.G
	p := sim.Protocol{
		Builders: make(map[string]sim.Builder, s.N()),
		Inputs:   make(map[string]sim.Input, s.N()),
	}
	for sn := 0; sn < s.N(); sn++ {
		sName := s.Name(sn)
		gNode := cover.Phi[sn]
		gName := g.Name(gNode)
		builder, ok := builders[gName]
		if !ok {
			return nil, fmt.Errorf("core: no builder for G-node %q (image of %q)", gName, sName)
		}
		input, ok := inputs[sName]
		if !ok {
			return nil, fmt.Errorf("core: no input for S-node %q", sName)
		}
		p.Inputs[sName] = input

		// The S-ports sort the S-neighbor names; the inner device's
		// G-ports sort their images.
		sNbs := s.Neighbors(sn)
		sort.Slice(sNbs, func(i, j int) bool { return s.Name(sNbs[i]) < s.Name(sNbs[j]) })
		images := make([]string, len(sNbs)) // by S-port
		pairs := make([]string, len(sNbs))
		for i, nb := range sNbs {
			images[i] = g.Name(cover.Phi[nb])
			pairs[i] = s.Name(nb) + ">" + images[i]
		}
		gNeighbors := append([]string(nil), images...)
		sort.Strings(gNeighbors)
		toG := sim.PortsOf(images, gNeighbors)
		sort.Strings(pairs)
		id := "renamed:" + gName + "[" + strings.Join(pairs, ",") + "]"
		// Capture loop variables for the closure.
		b, in, gn := builder, input, gName
		p.Builders[sName] = func(self string, neighbors []string, _ sim.Input) sim.Device {
			return &renamedDevice{inner: b(gn, gNeighbors, in), id: id, toG: toG}
		}
	}
	inputsCopy := make(map[string]sim.Input, len(p.Inputs))
	for k, v := range p.Inputs {
		inputsCopy[k] = v
	}
	return &Installation{
		Cover:    cover,
		Protocol: p,
		Inputs:   inputsCopy,
	}, nil
}

// Execute instantiates the installed devices and runs the covering system
// for the given number of rounds.
func (inst *Installation) Execute(rounds int) (*sim.Run, error) {
	sys, err := sim.NewSystem(inst.Cover.S, inst.Protocol)
	if err != nil {
		return nil, err
	}
	return sim.Execute(sys, rounds)
}
