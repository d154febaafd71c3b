package clocksync

import (
	"fmt"
	"math/big"

	"flm/internal/clockfn"
	"flm/internal/graph"
	"flm/internal/timedsim"
)

// This file provides the adequate-graph counterpoint to Theorem 8:
// measuring how closely real devices synchronize on graphs the theorem
// does NOT cover. On K4 with f = 1 the trimmed-midpoint device keeps the
// correct logical clocks within a bounded gap while the trivial
// lower-envelope gap l(q(t)) - l(p(t)) grows without bound — consistent
// with the paper, whose bound applies only to inadequate graphs.

// AdequateSyncSample is one measurement of a synchronization run.
type AdequateSyncSample struct {
	T           float64 // real sample time
	MeasuredGap float64 // max |C_i - C_j| over correct nodes
	TrivialGap  float64 // l(q(t)) - l(p(t)) at the sample time
}

// MeasureAdequateSync runs the builders on g (one clock per node, one
// optional scripted liar) and samples the maximum logical gap among
// correct nodes at each of the given real times, which must ascend. One
// timed run, to the last sample, serves every sample (timedsim's
// System.Samples).
func MeasureAdequateSync(params Params, g *graph.Graph, clocks []clockfn.RatLinear, builders map[string]Builder, liar string, liarScript []timedsim.ScriptedSend, samples []*big.Rat) ([]AdequateSyncSample, error) {
	if len(clocks) != g.N() {
		return nil, fmt.Errorf("clocksync: %d clocks for %d nodes", len(clocks), g.N())
	}
	if len(samples) == 0 {
		return nil, nil
	}
	at := make([]clockfn.Q, len(samples))
	for i, s := range samples {
		at[i] = clockfn.FromRat(s)
	}
	nodes := make([]timedsim.Node, g.N())
	for u := 0; u < g.N(); u++ {
		name := g.Name(u)
		if name == liar {
			nodes[u] = timedsim.Node{Script: liarScript, Clock: clocks[u]}
			continue
		}
		b, ok := builders[name]
		if !ok {
			return nil, fmt.Errorf("clocksync: no builder for node %q", name)
		}
		var nbs []string
		for _, v := range g.Neighbors(u) {
			nbs = append(nbs, g.Name(v))
		}
		nodes[u] = timedsim.Node{Device: b(name, nbs), Clock: clocks[u]}
	}
	sys := &timedsim.System{G: g, Nodes: nodes, Delta: params.Delta, Samples: at}
	run, err := timedsim.Execute(sys, at[len(at)-1])
	if err != nil {
		return nil, err
	}
	out := make([]AdequateSyncSample, 0, len(samples))
	for i, clocks := range run.Sampled {
		lo, hi := 0.0, 0.0
		first := true
		for u, c := range clocks {
			if g.Name(u) == liar {
				continue
			}
			if first {
				lo, hi, first = c, c, false
				continue
			}
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		tF := at[i].Float64()
		out = append(out, AdequateSyncSample{
			T:           tF,
			MeasuredGap: hi - lo,
			TrivialGap:  params.TrivialGap(tF),
		})
	}
	return out, nil
}

// ClockLiarScript fabricates wildly inconsistent clock readings: at each
// integer time step it sends a huge value to one neighbor and a tiny one
// to the next, rotating through the neighbor list.
func ClockLiarScript(g *graph.Graph, liar string, until int64) []timedsim.ScriptedSend {
	u := g.MustIndex(liar)
	var nbs []string
	for _, v := range g.Neighbors(u) {
		nbs = append(nbs, g.Name(v))
	}
	var script []timedsim.ScriptedSend
	for t := int64(0); t <= until; t++ {
		for i, nb := range nbs {
			payload := "1000000"
			if (int(t)+i)%2 == 0 {
				payload = "-1000000"
			}
			script = append(script, timedsim.ScriptedSend{
				At: clockfn.NewQ(t, 1), To: nb, Payload: payload,
			})
		}
	}
	return script
}
