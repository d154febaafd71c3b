package weak

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"flm/internal/sim"
)

// encodeReference is detect-default's payload built from scratch every
// round, as the device did before it kept the payload between changes:
// the oracle of TestDetectDefaultPayloadMatchesReference.
func encodeReference(d *detectDefault) sim.Payload {
	flag := "ok"
	if d.anomaly {
		flag = "bad"
	}
	keys := make([]string, 0, len(d.views))
	for k := range d.views {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys)+2)
	parts = append(parts, d.input, flag)
	for _, k := range keys {
		parts = append(parts, k+"="+d.views[k])
	}
	return sim.Payload(strings.Join(parts, "|"))
}

// TestDetectDefaultPayloadMatchesReference drives detect-default devices
// through random inboxes (silent ports, well-formed reports, anomaly
// flags, conflicting reports about one node, malformed traffic) and
// checks every round's broadcast against the payload rebuilt from the
// device's state.
func TestDetectDefaultPayloadMatchesReference(t *testing.T) {
	nbs := []string{"b", "c", "d"}
	names := []string{"a", "b", "c", "d", "e"}
	rng := rand.New(rand.NewSource(1))
	bit := func() string { return []string{"0", "1"}[rng.Intn(2)] }
	report := func() sim.Payload {
		switch rng.Intn(8) {
		case 0:
			return sim.None // silence
		case 1:
			return sim.Payload(bit() + "|bad") // an anomaly report
		case 2:
			return sim.Payload([]string{"x|ok", "1", "1|maybe", "1|ok|c", "1|ok|c=2"}[rng.Intn(5)])
		}
		// A well-formed report whose view may contradict earlier ones.
		parts := []string{bit(), "ok"}
		for _, n := range names {
			if rng.Intn(2) == 0 {
				parts = append(parts, n+"="+bit())
			}
		}
		return sim.Payload(strings.Join(parts, "|"))
	}
	for trial := 0; trial < 300; trial++ {
		input := sim.Input([]string{"0", "1", "?"}[rng.Intn(3)])
		d := NewDetectDefault(3)("a", nbs, input).(*detectDefault)
		// A quiet neighbor keeps repeating one report, so that some
		// trials stay anomaly free for several rounds.
		quiet := trial%3 == 0
		steady := sim.Payload(string(input) + "|ok")
		for round := 0; round < 6; round++ {
			inbox := make(sim.Inbox, len(nbs))
			for i := range inbox {
				if quiet {
					inbox[i] = steady
				} else {
					inbox[i] = report()
				}
			}
			out := d.Step(round, inbox)
			want := encodeReference(d)
			for port, p := range out {
				if p != want {
					t.Fatalf("trial %d round %d port %d: payload %q, want %q", trial, round, port, p, want)
				}
			}
		}
	}
}
