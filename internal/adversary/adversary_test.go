package adversary

import (
	"testing"

	"flm/internal/graph"
	"flm/internal/sim"
)

// echoDevice broadcasts its input every round; the simplest honest inner
// device for wrapper tests.
type echoDevice struct {
	nbs   []string
	input sim.Input
	round int
}

func echoBuilder(self string, neighbors []string, input sim.Input) sim.Device {
	return &echoDevice{nbs: append([]string(nil), neighbors...), input: input}
}

func (d *echoDevice) Init(self string, neighbors []string, input sim.Input) {
	d.nbs = append([]string(nil), neighbors...)
	d.input = input
}

func (d *echoDevice) Step(round int, inbox sim.Inbox) sim.Outbox {
	d.round = round
	out := make(sim.Outbox, len(d.nbs))
	for i := range out {
		out[i] = sim.Payload(d.input)
	}
	return out
}

func (d *echoDevice) Snapshot() string             { return string(d.input) + "@" + sim.EncodeInt(d.round) }
func (d *echoDevice) Output() (sim.Decision, bool) { return sim.Decision{}, false }

func runStar(t *testing.T, center sim.Builder, rounds int) *sim.Run {
	t.Helper()
	g := graph.Star(4) // s0 center, s1..s3 leaves
	inputs := map[string]sim.Input{"s0": "1", "s1": "1", "s2": "1", "s3": "1"}
	trial := sim.Trial{G: g, Inputs: inputs, Honest: echoBuilder, Faulty: map[string]sim.Builder{"s0": center}, Rounds: rounds}
	run, _, err := trial.Run(sim.FullRecording)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestSilentSendsNothing(t *testing.T) {
	run := runStar(t, Silent(), 3)
	for _, leaf := range []string{"s1", "s2", "s3"} {
		seq, _ := run.EdgeBehavior("s0", leaf)
		for r, p := range seq {
			if p != sim.None {
				t.Errorf("silent node sent %q to %s in round %d", p, leaf, r)
			}
		}
	}
}

func TestCrashStopsAtRound(t *testing.T) {
	run := runStar(t, Crash(echoBuilder, 2), 4)
	seq, _ := run.EdgeBehavior("s0", "s1")
	if seq[0] == sim.None || seq[1] == sim.None {
		t.Error("crash device silent before crash round")
	}
	if seq[2] != sim.None || seq[3] != sim.None {
		t.Error("crash device spoke after crash round")
	}
}

func TestOmissionDropsOnlyListed(t *testing.T) {
	run := runStar(t, Omission(echoBuilder, "s1", "s3"), 2)
	for _, tc := range []struct {
		leaf   string
		silent bool
	}{{"s1", true}, {"s2", false}, {"s3", true}} {
		seq, _ := run.EdgeBehavior("s0", tc.leaf)
		got := seq[0] == sim.None
		if got != tc.silent {
			t.Errorf("omission to %s: silent=%v, want %v", tc.leaf, got, tc.silent)
		}
	}
}

func TestEquivocateShowsTwoFaces(t *testing.T) {
	faceB := func(nb string) bool { return nb == "s2" }
	run := runStar(t, Equivocate(echoBuilder, "0", "1", faceB), 2)
	s1, _ := run.EdgeBehavior("s0", "s1")
	s2, _ := run.EdgeBehavior("s0", "s2")
	if s1[0] != "0" {
		t.Errorf("face A sent %q, want 0", s1[0])
	}
	if s2[0] != "1" {
		t.Errorf("face B sent %q, want 1", s2[0])
	}
}

func TestNoiseIsDeterministic(t *testing.T) {
	a := runStar(t, Noise(42), 5)
	b := runStar(t, Noise(42), 5)
	for _, leaf := range []string{"s1", "s2", "s3"} {
		sa, _ := a.EdgeBehavior("s0", leaf)
		sb, _ := b.EdgeBehavior("s0", leaf)
		for r := range sa {
			if sa[r] != sb[r] {
				t.Fatalf("noise differs at %s round %d: %q vs %q", leaf, r, sa[r], sb[r])
			}
		}
	}
	c := runStar(t, Noise(43), 5)
	same := true
	for _, leaf := range []string{"s1", "s2", "s3"} {
		sa, _ := a.EdgeBehavior("s0", leaf)
		sc, _ := c.EdgeBehavior("s0", leaf)
		for r := range sa {
			if sa[r] != sc[r] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical noise")
	}
}

func TestMirrorReflectsRotated(t *testing.T) {
	run := runStar(t, Mirror(), 4)
	// Leaves broadcast "1" every round starting at round 0; the mirror
	// receives them in round 1 and reflects in round 2 (one round of
	// buffering).
	for _, leaf := range []string{"s1", "s2", "s3"} {
		seq, _ := run.EdgeBehavior("s0", leaf)
		if seq[0] != sim.None || seq[1] != sim.None {
			t.Errorf("mirror spoke before buffering to %s: %q %q", leaf, seq[0], seq[1])
		}
		if seq[2] != "1" {
			t.Errorf("mirror did not reflect to %s in round 2: %q", leaf, seq[2])
		}
	}
}

func TestPanelShape(t *testing.T) {
	panel := Panel(1)
	if len(panel) < 5 {
		t.Fatalf("panel has %d strategies", len(panel))
	}
	seen := map[string]bool{}
	for _, s := range panel {
		if s.Name == "" || s.Corrupt == nil {
			t.Errorf("malformed strategy %+v", s)
		}
		if seen[s.Name] {
			t.Errorf("duplicate strategy name %s", s.Name)
		}
		seen[s.Name] = true
		// Every corrupted builder must produce a working device.
		b := s.Corrupt(echoBuilder)
		d := b("x", []string{"y"}, "0")
		d.Step(0, nil)
		if d.Snapshot() == "" {
			t.Errorf("strategy %s produced empty snapshot", s.Name)
		}
		if _, decided := d.Output(); decided {
			t.Errorf("faulty device %s claims a decision", s.Name)
		}
	}
}
