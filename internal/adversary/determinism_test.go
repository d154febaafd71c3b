package adversary

import (
	"os"
	"strings"
	"testing"

	"flm/internal/byzantine"
	"flm/internal/graph"
	"flm/internal/sim"
	"flm/internal/sweep"
)

// transcript runs one fully-recorded EIG execution on K5 with a seeded
// Noise attacker and renders everything observable — inputs, edge
// traffic, snapshots, decisions — as one string. Byte equality of two
// transcripts means the executions were indistinguishable.
func transcript(t *testing.T, seed int64) string {
	t.Helper()
	g := graph.Complete(5)
	names := g.Names()
	inputs := make(map[string]sim.Input, len(names))
	for i, name := range names {
		inputs[name] = sim.BoolInput(i%2 == 0)
	}
	trial := sim.Trial{
		G: g, Inputs: inputs, Honest: byzantine.NewEIG(1, names),
		Faulty: map[string]sim.Builder{names[1]: Noise(seed, "0", "1", "garbage")},
		Rounds: byzantine.EIGRounds(1),
	}
	run, _, err := trial.Run(sim.FullRecording)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(sim.Trace(run, 120))
	for _, name := range names {
		snaps, err := run.SnapshotsOf(name)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(name + ": " + strings.Join(snaps, "|") + "\n")
	}
	b.WriteString(run.String())
	return b.String()
}

// TestSeededAdversaryTranscriptsIdentical: the same seed and system
// produce byte-identical transcripts on repeated runs.
func TestSeededAdversaryTranscriptsIdentical(t *testing.T) {
	a, b := transcript(t, 42), transcript(t, 42)
	if a != b {
		t.Fatal("repeated runs with the same seed diverged")
	}
	if c := transcript(t, 43); c == a {
		t.Fatal("different seeds produced identical noise transcripts")
	}
}

// TestSeededAdversaryTranscriptsAcrossWorkers: a sweep of seeded attack
// runs yields the same transcripts whether executed by one worker or
// by four via FLM_WORKERS.
func TestSeededAdversaryTranscriptsAcrossWorkers(t *testing.T) {
	const trials = 8
	sweepTranscripts := func() []string {
		out, err := sweep.Map(trials, func(i int) (string, error) {
			return transcript(t, int64(100+i)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	oldEnv := os.Getenv(sweep.WorkersEnv)
	defer func() {
		os.Setenv(sweep.WorkersEnv, oldEnv)
		sweep.SetWorkers(0)
	}()

	sweep.SetWorkers(1)
	one := sweepTranscripts()

	os.Setenv(sweep.WorkersEnv, "4")
	sweep.SetWorkers(0) // defer to the env var
	four := sweepTranscripts()

	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("trial %d transcript differs between 1 worker and FLM_WORKERS=4", i)
		}
	}
}
