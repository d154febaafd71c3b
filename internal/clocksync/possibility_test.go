package clocksync

import (
	"math"
	"math/big"
	"testing"

	"flm/internal/clockfn"
	"flm/internal/graph"
	"flm/internal/timedsim"
)

func TestTrimmedMidpointBeatsTrivialOnAdequateGraph(t *testing.T) {
	// K4, f=1: three correct nodes (two slow clocks, one fast) plus a
	// scripted clock liar. The trimmed-midpoint device must keep the
	// correct gap well below the unbounded trivial gap at late times.
	params := stdParams(1)
	g := graph.Complete(4)
	clocks := []clockfn.RatLinear{
		clockfn.RatIdentity(),            // p0: slow
		clockfn.NewRatLinear(3, 2, 0, 1), // p1: fast
		clockfn.NewRatLinear(5, 4, 1, 4), // p2: in between, offset
		clockfn.RatIdentity(),            // p3: the liar (clock irrelevant)
	}
	builders := map[string]Builder{}
	for _, name := range g.Names() {
		builders[name] = NewTrimmedMidpoint(params.L, 1)
	}
	samples := []*big.Rat{big.NewRat(8, 1), big.NewRat(32, 1), big.NewRat(64, 1)}
	results, err := MeasureAdequateSync(params, g, clocks, builders, "p3",
		ClockLiarScript(g, "p3", 64), samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.T >= 32 && r.MeasuredGap >= r.TrivialGap {
			t.Errorf("t=%v: measured gap %.3f not below trivial %.3f on an ADEQUATE graph",
				r.T, r.MeasuredGap, r.TrivialGap)
		}
		// The liar must not have dragged the correct clocks to absurdity.
		if r.MeasuredGap > 10 {
			t.Errorf("t=%v: gap %.3f exploded; trimming failed", r.T, r.MeasuredGap)
		}
	}
}

func TestTrivialDeviceMatchesTrivialGapExactly(t *testing.T) {
	params := stdParams(1)
	g := graph.Complete(4)
	clocks := []clockfn.RatLinear{
		clockfn.RatIdentity(),            // slow
		clockfn.NewRatLinear(3, 2, 0, 1), // fast
		clockfn.NewRatLinear(5, 4, 1, 4), // in between, offset
		clockfn.RatIdentity(),            // the liar's (irrelevant)
	}
	builders := map[string]Builder{}
	for _, name := range g.Names() {
		builders[name] = NewTrivialLower(params.L)
	}
	results, err := MeasureAdequateSync(params, g, clocks, builders, "", nil,
		[]*big.Rat{big.NewRat(8, 1), big.NewRat(32, 1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if diff := r.MeasuredGap - r.TrivialGap; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("t=%v: trivial device gap %.6f != l(q)-l(p) = %.6f", r.T, r.MeasuredGap, r.TrivialGap)
		}
	}
}

func TestMeasureAdequateSyncValidation(t *testing.T) {
	params := stdParams(1)
	g := graph.Complete(3)
	if _, err := MeasureAdequateSync(params, g, nil, nil, "", nil, nil); err == nil {
		t.Error("clock count mismatch accepted")
	}
	clocks := []clockfn.RatLinear{clockfn.RatIdentity(), clockfn.RatIdentity(), clockfn.RatIdentity()}
	if _, err := MeasureAdequateSync(params, g, clocks, map[string]Builder{}, "", nil,
		[]*big.Rat{big.NewRat(1, 1)}); err == nil {
		t.Error("missing builder accepted")
	}
	builders := map[string]Builder{}
	for _, name := range g.Names() {
		builders[name] = NewMidpoint(params.L)
	}
	if _, err := MeasureAdequateSync(params, g, clocks, builders, "", nil,
		[]*big.Rat{big.NewRat(2, 1), big.NewRat(1, 1)}); err == nil {
		t.Error("descending samples accepted")
	}
}

// TestSampledMatchesSeparateRuns: each row of Run.Sampled is, bit for
// bit, the FinalLogical of a separate run to that sample time. The
// averaging devices run under a clock liar on K4 and K3, and the samples
// fall on tick and send times, between events, and twice on one time.
func TestSampledMatchesSeparateRuns(t *testing.T) {
	params := stdParams(1)
	clockZoo := []clockfn.RatLinear{
		clockfn.RatIdentity(),
		clockfn.NewRatLinear(3, 2, 0, 1),
		clockfn.NewRatLinear(5, 4, 1, 4),
	}
	samples := []clockfn.Q{
		clockfn.NewQ(0, 1), clockfn.NewQ(33, 7), clockfn.NewQ(8, 1), clockfn.NewQ(33, 4),
		clockfn.NewQ(32, 1), clockfn.NewQ(32, 1), clockfn.NewQ(64, 1),
	}
	for _, tc := range []struct {
		n int
		b Builder
	}{{4, NewTrimmedMidpoint(params.L, 1)}, {3, NewMidpoint(params.L)}} {
		g := graph.Complete(tc.n)
		liar := g.Name(tc.n - 1)
		system := func(samples []clockfn.Q) *timedsim.System {
			nodes := make([]timedsim.Node, tc.n)
			for u := range nodes {
				nodes[u].Clock = clockZoo[u%len(clockZoo)]
				if g.Name(u) == liar {
					nodes[u].Script = ClockLiarScript(g, liar, 64)
				} else {
					nodes[u].Device = tc.b(g.Name(u), nil)
				}
			}
			return &timedsim.System{G: g, Nodes: nodes, Delta: params.Delta, Samples: samples}
		}
		run, err := timedsim.Execute(system(samples), samples[len(samples)-1])
		if err != nil {
			t.Fatal(err)
		}
		if len(run.Sampled) != len(samples) {
			t.Fatalf("K%d: %d sampled rows for %d samples", tc.n, len(run.Sampled), len(samples))
		}
		for i, at := range samples {
			ref, err := timedsim.Execute(system(nil), at)
			if err != nil {
				t.Fatal(err)
			}
			for u, want := range ref.FinalLogical {
				if got := run.Sampled[i][u]; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("K%d sample %s node %s: sampled %v, a run to it ends at %v", tc.n, at, g.Name(u), got, want)
				}
			}
		}
	}
}
