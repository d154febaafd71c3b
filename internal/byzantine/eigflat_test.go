package byzantine

import (
	"fmt"
	"math/rand"
	"testing"

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

// TestFlatEIGMatchesMapReference drives the flat device and the retained
// map-based reference through identical randomized schedules — random
// inputs, random Byzantine inboxes including non-peer senders — and
// requires identical payloads, snapshots, decisions, and fingerprints at
// every step.
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
		shape := eigShapeFor(f, append([]string(nil), peers...), fp)
		if shape == nil {
			t.Fatalf("trial %d: shape unexpectedly ineligible", trial)
		}
		// The neighbors (already in port order) are every peer plus a
		// non-peer, whose port carries legal Byzantine noise from outside
		// the peer set.
		nbs := append([]string{"outsider"}, peers...)
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
				if p == self || rng.Intn(4) == 0 || (p == "outsider" && rng.Intn(3) != 0) {
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

// TestFlatEIGOutsiderSelfFallsBack: a device initialized at a node
// outside the peer set delegates to the reference implementation and
// stays observably identical to it.
func TestFlatEIGOutsiderSelfFallsBack(t *testing.T) {
	peers := []string{"a", "b", "c", "d"}
	fp := fmt.Sprintf("byz/eig:f=%d,peers=%s", 1, joinPeers(peers))
	shape := eigShapeFor(1, peers, fp)
	if shape == nil {
		t.Fatal("shape ineligible")
	}
	flat := &eigFlatDevice{shape: shape}
	flat.Init("zz", peers, "1")
	if flat.fb == nil {
		t.Fatal("outsider self did not fall back to the map device")
	}
	ref := &eigMapDevice{f: 1, peers: peers}
	ref.Init("zz", peers, "1")
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < EIGRounds(1); round++ {
		inbox := sim.Inbox{randomClaimPayload(rng, peers), "=1", sim.None, sim.None}
		outFlat, outRef := flat.Step(round, inbox), ref.Step(round, inbox)
		for i, p := range outRef {
			if outFlat[i] != p {
				t.Fatalf("round %d: payload to %s differs", round, peers[i])
			}
		}
		if flat.Snapshot() != ref.Snapshot() {
			t.Fatalf("round %d: snapshots differ:\n%s\n%s", round, flat.Snapshot(), ref.Snapshot())
		}
	}
}

// TestNewEIGUsesFlatDevice pins that the builder actually selects the
// flat implementation for ordinary peer sets (the perf path is the
// default, not a lucky accident).
func TestNewEIGUsesFlatDevice(t *testing.T) {
	d := NewEIG(1, []string{"a", "b", "c", "d"})("a", []string{"b", "c", "d"}, "1")
	fd, ok := d.(*eigFlatDevice)
	if !ok {
		t.Fatalf("builder returned %T, want *eigFlatDevice", d)
	}
	if fd.fb != nil {
		t.Fatal("flat device fell back to the map reference for a peer self")
	}
	// And a peer set the flat shape cannot index falls back cleanly.
	big := make([]string, 70)
	for i := range big {
		big[i] = fmt.Sprintf("q%02d", i)
	}
	d = NewEIG(1, big)(big[0], big[1:], "1")
	if _, ok := d.(*eigMapDevice); !ok {
		t.Fatalf("builder returned %T for 70 peers, want *eigMapDevice", d)
	}
}
