package eval

import (
	"context"
	"testing"

	"flm/internal/adversary"
	"flm/internal/approx"
	"flm/internal/byzantine"
	"flm/internal/firingsquad"
	"flm/internal/graph"
	"flm/internal/sim"
	"flm/internal/weak"
)

// TestSnapshotsMatchFreshDevices is the oracle for memoized snapshots.
// Devices keep their last encoding until Init or Step changes their
// state, and the executor stores a repeat without hashing it again, so a
// missed invalidation would record a stale state for every later round.
// For every production builder, every input pattern of its domain, and
// no fault or one Panel strategy or replay device at one node, each
// recorded snapshot must equal the first Snapshot of a fresh system
// stepped to the same round in fast mode, which never calls Snapshot.
//
// Every run takes a cancellable context, which bypasses the run cache:
// the recording under test is always made by the devices under test.
func TestSnapshotsMatchFreshDevices(t *testing.T) {
	k2, tri, k4, k5 := graph.Complete(2), graph.Triangle(), graph.Complete(4), graph.Complete(5)
	bools := []sim.Input{sim.BoolInput(false), sim.BoolInput(true)}
	cases := []struct {
		name   string
		g      *graph.Graph
		b      sim.Builder
		domain []sim.Input
		rounds int // past the decision, so settled states repeat
	}{
		{"eig", k4, byzantine.NewEIG(1, k4.Names()), bools, byzantine.EIGRounds(1) + 2},
		// Facing the silent strategy, the lone honest peer hears nothing,
		// so its decision is the only change of its final round.
		{"eig-pair", k2, byzantine.NewEIG(1, k2.Names()), bools, byzantine.EIGRounds(1) + 2},
		{"phase-king", k5, byzantine.NewPhaseKing(1, k5.Names()), bools, byzantine.PhaseKingRounds(1) + 2},
		{"turpin-coan", k4, byzantine.NewTurpinCoan(1, k4.Names()), []sim.Input{"x", "y"}, byzantine.TurpinCoanRounds(1) + 2},
		{"majority", tri, byzantine.NewMajority(2), bools, 5},
		{"echo", tri, byzantine.NewEcho(2), bools, 5},
		{"seeded-majority", tri, byzantine.NewSeededMajority(1, 2), bools, 5},
		{"own-input", tri, byzantine.NewOwnInput(1), bools, 4},
		{"constant", tri, byzantine.NewConstant("1", 1), bools, 4},
		{"detect-default", tri, weak.NewDetectDefault(2), bools, 5},
		{"weak-via-ba", k4, weak.NewViaBA(1, k4.Names()), bools, byzantine.EIGRounds(1) + 2},
		{"fs-via-ba", k4, firingsquad.NewViaBA(1, k4.Names()), bools, firingsquad.Rounds(1) + 2},
		{"countdown", tri, firingsquad.NewCountdown(2), bools, 6},
		{"median", tri, approx.NewMedian(2), []sim.Input{sim.RealInput(0), sim.RealInput(0.5), sim.RealInput(1)}, 5},
		{"dlpsw", k4, approx.NewDLPSW(1, k4.Names(), 3), []sim.Input{sim.RealInput(0), sim.RealInput(1)}, approx.DLPSWRounds(3) + 2},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := c.g.Name(0)
			repeats := 0
			for _, inputs := range inputPatterns(c.g.Names(), c.domain) {
				p := sim.Protocol{Builders: uniformBuilders(c.g, c.b), Inputs: inputs}
				base, n := checkFreshSnapshots(t, ctx, c.g, p, c.rounds, "no fault")
				repeats += n
				for _, s := range adversary.Panel(1) {
					p.Builders[bad] = s.Corrupt(c.b)
					_, n := checkFreshSnapshots(t, ctx, c.g, p, c.rounds, s.Name)
					repeats += n
				}
				// A replay device playing the bad node's fault-free traffic
				// to all but one neighbor.
				scripts := map[string][]sim.Payload{}
				for _, v := range c.g.Neighbors(0)[1:] {
					seq, err := base.EdgeBehavior(bad, c.g.Name(v))
					if err != nil {
						t.Fatal(err)
					}
					scripts[c.g.Name(v)] = seq
				}
				p.Builders[bad] = sim.ReplayBuilder(scripts)
				_, n = checkFreshSnapshots(t, ctx, c.g, p, c.rounds, "replay")
				repeats += n
			}
			if repeats == 0 {
				t.Errorf("no recorded snapshot repeats its predecessor within %d rounds: the memo path went untested", c.rounds)
			}
		})
	}
}

// checkFreshSnapshots executes p once with full recording, then, for each
// round k, steps a fresh system k+1 rounds in fast mode and requires every
// device's Snapshot to equal the recorded one. It returns the recorded run
// and how many recorded snapshots repeat the previous round's.
func checkFreshSnapshots(t *testing.T, ctx context.Context, g *graph.Graph, p sim.Protocol, rounds int, fault string) (*sim.Run, int) {
	t.Helper()
	sys, err := sim.NewSystem(g, p)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sim.ExecuteCtx(ctx, sys, rounds, sim.FullRecording)
	if err != nil {
		t.Fatal(err)
	}
	repeats := 0
	for k := 0; k < rounds; k++ {
		fresh, err := sim.NewSystem(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.ExecuteCtx(ctx, fresh, k+1, sim.ExecuteOpts{}); err != nil {
			t.Fatal(err)
		}
		for u, d := range fresh.Devices {
			recorded := run.Snapshots[u][k]
			if got := d.Snapshot(); got != recorded {
				t.Fatalf("%s, inputs %v: node %s, round %d: recorded %q vs fresh %q", fault, p.Inputs, g.Name(u), k, recorded, got)
			}
			if k > 0 && recorded == run.Snapshots[u][k-1] {
				repeats++
			}
		}
	}
	return run, repeats
}

// inputPatterns returns every assignment of a domain value to each node.
func inputPatterns(names []string, domain []sim.Input) []map[string]sim.Input {
	patterns := []map[string]sim.Input{{}}
	for _, name := range names {
		var next []map[string]sim.Input
		for _, p := range patterns {
			for _, v := range domain {
				q := make(map[string]sim.Input, len(names))
				for k, x := range p {
					q[k] = x
				}
				q[name] = v
				next = append(next, q)
			}
		}
		patterns = next
	}
	return patterns
}
