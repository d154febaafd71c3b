package chaos

import (
	"fmt"
	"math/big"
	"math/rand"
	"strconv"

	"flm/internal/clockfn"
	"flm/internal/clocksync"
	"flm/internal/graph"
	"flm/internal/timedsim"
)

// Clock synchronization rides the timed (exact rational) simulator, so
// its chaos trials run through MeasureAdequateSync rather than
// sim.Execute: a seeded clock liar babbles fabricated readings and the
// condition is the paper's — on an adequate graph the fault-tolerant
// trimmed-midpoint device must keep the correct-node gap strictly below
// the trivial no-communication gap (and bounded), while on an inadequate
// graph (n = 3f) the liar is expected to drag averaging devices past it,
// which is exactly what Theorem 8 predicts no device can prevent.

const (
	clockHorizon   = 64 // real-time horizon of each timed run
	clockGapBound  = 10 // absolute gap correct nodes must stay within
	clockFirstEval = 32 // samples at/after this time are judged
)

// newClockSchedule draws one clock-synchronization trial.
func newClockSchedule(rng *rand.Rand) Schedule {
	n := 3 + rng.Intn(2) // K3 (inadequate, n = 3f) or K4 (adequate)
	s := Schedule{
		Protocol: "clocksync",
		N:        n,
		F:        1,
		Adequate: n >= 4,
		Device:   "trimmed-midpoint",
		Inputs:   make([]string, n),
	}
	if !s.Adequate {
		// On the inadequate graph the panel attacks the plain averaging
		// device: trimming f=1 of 2 neighbor readings degenerates anyway.
		s.Device = "midpoint"
	}
	names := complete(n).Names()
	s.Actions = []Action{{
		Node:     names[rng.Intn(n)],
		Strategy: "clock-liar",
		Seed:     rng.Int63(),
	}}
	return s
}

func chaosClockParams() clocksync.Params {
	// p = t, q = 1.5t, l = t, u = t + 4, t' = 4 — the repository's
	// standard Theorem 8 instance.
	return clocksync.Params{
		P:      clockfn.RatIdentity(),
		Q:      clockfn.NewRatLinear(3, 2, 0, 1),
		L:      clockfn.Linear{Rate: 1, Off: 0},
		U:      clockfn.Linear{Rate: 1, Off: 4},
		Alpha:  1,
		TPrime: big.NewRat(4, 1),
		Delta:  big.NewRat(1, 2),
	}
}

// liarScript fabricates seeded pseudo-random clock readings: at every
// integer time the liar reports an arbitrary value in [-10^6, 10^6] to
// each neighbor independently — the Fault axiom's arbitrary behavior,
// randomized.
func liarScript(g *graph.Graph, liar string, seed int64, until int64) []timedsim.ScriptedSend {
	rng := rand.New(rand.NewSource(seed))
	u := g.MustIndex(liar)
	var nbs []string
	for _, v := range g.Neighbors(u) {
		nbs = append(nbs, g.Name(v))
	}
	var script []timedsim.ScriptedSend
	for t := int64(0); t <= until; t++ {
		for _, nb := range nbs {
			val := rng.Int63n(2_000_001) - 1_000_000
			script = append(script, timedsim.ScriptedSend{
				At: clockfn.NewQ(t, 1), To: nb, Payload: strconv.FormatInt(val, 10),
			})
		}
	}
	return script
}

func runClockSchedule(s Schedule) Outcome {
	params := chaosClockParams()
	g := complete(s.N)
	names := g.Names()

	// Deterministic heterogeneous hardware clocks inside the [p, q]
	// envelope, cycling slow / fast / intermediate.
	clockZoo := []clockfn.RatLinear{
		clockfn.RatIdentity(),
		clockfn.NewRatLinear(3, 2, 0, 1),
		clockfn.NewRatLinear(5, 4, 1, 4),
	}
	clocks := make([]clockfn.RatLinear, s.N)
	for i := range clocks {
		clocks[i] = clockZoo[i%len(clockZoo)]
	}

	var builder clocksync.Builder
	switch s.Device {
	case "trimmed-midpoint":
		builder = clocksync.NewTrimmedMidpoint(params.L, s.F)
	case "midpoint":
		builder = clocksync.NewMidpoint(params.L)
	default:
		return Outcome{EngineErr: fmt.Errorf("chaos: unknown clock device %q", s.Device)}
	}
	builders := make(map[string]clocksync.Builder, s.N)
	for _, name := range names {
		builders[name] = builder
	}

	liar := ""
	var script []timedsim.ScriptedSend
	if len(s.Actions) > 0 {
		liar = s.Actions[0].Node
		script = liarScript(g, liar, s.Actions[0].Seed, clockHorizon)
	}
	samples := []*big.Rat{big.NewRat(clockFirstEval, 1), big.NewRat(clockHorizon, 1)}
	results, err := clocksync.MeasureAdequateSync(params, g, clocks, builders, liar, script, samples)
	if err != nil {
		return Outcome{EngineErr: err}
	}
	for _, r := range results {
		if r.T < clockFirstEval {
			continue
		}
		if r.MeasuredGap >= r.TrivialGap {
			return Outcome{Violation: fmt.Errorf(
				"clocksync: at t=%v the correct-node gap %.3f is not below the trivial gap %.3f",
				r.T, r.MeasuredGap, r.TrivialGap)}
		}
		if r.MeasuredGap > clockGapBound {
			return Outcome{Violation: fmt.Errorf(
				"clocksync: at t=%v the correct-node gap %.3f exploded past %d",
				r.T, r.MeasuredGap, clockGapBound)}
		}
	}
	return Outcome{}
}
