package byzantine

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"flm/internal/graph"
	"flm/internal/sim"
)

// randomClaimPayload builds a random round payload: claims over random
// label sequences (valid relays, duplicate names, unknown names, wrong
// lengths, malformed separators) with values drawn from valid and
// delimiter-smuggling alphabets. This deliberately exercises every skip
// branch of absorb.
func randomClaimPayload(rng *rand.Rand, peers []string) sim.Payload {
	values := []string{"0", "1", "7", "x", "", "a=b", "a/b", "a;b", "-"}
	nClaims := rng.Intn(4)
	payload := ""
	for c := 0; c < nClaims; c++ {
		if c > 0 {
			payload += ";"
		}
		if rng.Intn(8) == 0 {
			payload += "-" // no '=': skipped like the silence marker
			continue
		}
		label := ""
		for l, ln := 0, rng.Intn(3); l < ln; l++ {
			if l > 0 {
				label += "/"
			}
			switch rng.Intn(5) {
			case 0:
				label += "zz" // unknown name
			case 1:
				label += "" // empty component
			default:
				label += peers[rng.Intn(len(peers))]
			}
		}
		payload += label + "=" + values[rng.Intn(len(values))]
	}
	return sim.Payload(payload)
}

// TestFlatEIGMatchesMapReference drives the flat device and the
// map-based reference (eigmap_test.go) through identical randomized
// schedules — random inputs, random Byzantine inboxes — and requires
// identical payloads, snapshots, decisions, and fingerprints at every
// step.
func TestFlatEIGMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(4)
		f := 1 + rng.Intn(2)
		peers := make([]string, n)
		for i := range peers {
			peers[i] = fmt.Sprintf("p%d", i)
		}
		self := peers[rng.Intn(n)]
		input := []string{"0", "1", "5", "", "a;b"}[rng.Intn(5)]

		fp := fmt.Sprintf("byz/eig:f=%d,peers=%s", f, joinPeers(peers))
		shape, err := eigShapeFor(f, append([]string(nil), peers...), fp)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The neighbors (already in port order) are every peer.
		nbs := append([]string(nil), peers...)
		flat := &eigFlatDevice{shape: shape}
		flat.Init(self, nbs, sim.Input(input))
		ref := &eigMapDevice{f: f, peers: append([]string(nil), peers...)}
		ref.Init(self, nbs, sim.Input(input))

		if flat.DeviceFingerprint() != ref.DeviceFingerprint() {
			t.Fatalf("trial %d: fingerprints differ: %q vs %q", trial, flat.DeviceFingerprint(), ref.DeviceFingerprint())
		}
		for round := 0; round < EIGRounds(f)+1; round++ {
			inbox := make(sim.Inbox, len(nbs))
			for i, p := range nbs {
				if p == self || rng.Intn(4) == 0 {
					continue // silent port
				}
				inbox[i] = randomClaimPayload(rng, peers)
			}
			outFlat := flat.Step(round, inbox)
			outRef := ref.Step(round, inbox)
			if len(outFlat) != len(outRef) {
				t.Fatalf("trial %d round %d: outbox sizes %d vs %d", trial, round, len(outFlat), len(outRef))
			}
			for i, p := range outRef {
				if outFlat[i] != p {
					t.Fatalf("trial %d round %d: payload to %s differs:\nflat: %q\nref:  %q", trial, round, nbs[i], outFlat[i], p)
				}
			}
			if sf, sr := flat.Snapshot(), ref.Snapshot(); sf != sr {
				t.Fatalf("trial %d round %d: snapshots differ:\nflat: %s\nref:  %s", trial, round, sf, sr)
			}
			df, okf := flat.Output()
			dr, okr := ref.Output()
			if okf != okr || df != dr {
				t.Fatalf("trial %d round %d: outputs differ: (%v,%v) vs (%v,%v)", trial, round, df, okf, dr, okr)
			}
		}
	}
}

func joinPeers(sorted []string) string {
	out := ""
	for i, p := range sorted {
		if i > 0 {
			out += ","
		}
		out += p
	}
	return out
}

// TestNewEIGUsesFlatDevice pins that the builder actually selects the
// flat implementation.
func TestNewEIGUsesFlatDevice(t *testing.T) {
	d := NewEIG(1, []string{"a", "b", "c", "d"})("a", []string{"b", "c", "d"}, "1")
	if _, ok := d.(*eigFlatDevice); !ok {
		t.Fatalf("builder returned %T, want *eigFlatDevice", d)
	}
}

// TestNewEIGRejectsUnindexablePeers: every input the flat tree cannot
// index is a build fault at the node being built, not a silent fallback.
func TestNewEIGRejectsUnindexablePeers(t *testing.T) {
	many := make([]string, 65)
	for i := range many {
		many[i] = fmt.Sprintf("q%02d", i)
	}
	cases := []struct {
		name     string
		nodes    []string
		builders func(g *graph.Graph) map[string]sim.Builder
		node     string // the node whose build faults
		want     string // substring of the panic value
	}{
		{"65 peers", []string{"q00", "q01"}, func(g *graph.Graph) map[string]sim.Builder {
			return uniform(g, NewEIG(1, many))
		}, "q00", "not 65"},
		{"delimiter in name", []string{"a", "b/c", "d"}, func(g *graph.Graph) map[string]sim.Builder {
			return uniform(g, NewEIG(1, g.Names()))
		}, "a", `"b/c"`},
		{"self outside peers", []string{"a", "b", "c"}, func(g *graph.Graph) map[string]sim.Builder {
			bs := uniform(g, NewEIG(1, g.Names()))
			bs["c"] = NewEIG(1, []string{"a", "b"})
			return bs
		}, "c", `self "c"`},
		{"neighbor outside peers", []string{"a", "b", "c"}, func(g *graph.Graph) map[string]sim.Builder {
			bs := uniform(g, NewEIG(1, g.Names()))
			bs["b"] = NewEIG(1, []string{"a", "b"})
			return bs
		}, "b", `neighbor "c"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.CompleteNamed(tc.nodes...)
			p := sim.Protocol{Builders: tc.builders(g), Inputs: map[string]sim.Input{}}
			for _, name := range tc.nodes {
				p.Inputs[name] = "1"
			}
			_, err := sim.NewSystem(g, p)
			var fault *sim.DeviceFault
			if !errors.As(err, &fault) {
				t.Fatalf("NewSystem error %v is not a *sim.DeviceFault", err)
			}
			if fault.Op != sim.OpBuild || fault.Node != tc.node {
				t.Fatalf("fault at node %q in %s, want node %q in %s", fault.Node, fault.Op, tc.node, sim.OpBuild)
			}
			if msg := fmt.Sprint(fault.Value); !strings.Contains(msg, tc.want) {
				t.Fatalf("fault value %q does not mention %s", msg, tc.want)
			}
		})
	}
}

func uniform(g *graph.Graph, b sim.Builder) map[string]sim.Builder {
	bs := make(map[string]sim.Builder, g.N())
	for _, name := range g.Names() {
		bs[name] = b
	}
	return bs
}
