package main

import (
	"fmt"

	"flm/internal/chaos"
)

// The chaos workload runs seeded chaos.Run batches with shrinking on,
// alternating the synchronous generator with the Async+Dead one (delay
// schedules and initially-dead faults).
//
// A batch's cost depends on how many of its trials violate and how long
// their shrinks take: across master seeds an 8-trial batch costs from
// 1 ms (all green) to over 500 ms. Drawing master seeds freely would
// make the op-cost distribution, and so every percentile, depend on the
// draw. The pools below hold master seeds whose batches all cost about
// the same (found with `flmbench pool`, see README.md); a pass runs each
// of them once, in an order the run seed picks. Each entry also records
// the batch's green count and number of expected findings, which every
// run must reproduce exactly.

// chaosTrials is the trial count of one batch.
const chaosTrials = 8

// chaosBatch is one pooled master seed and its deterministic outcome.
type chaosBatch struct {
	seed            int64
	green, expected int
}

// chaosPools are the vetted master seeds, {seed, green, expected}: [0]
// synchronous, [1] Async+Dead. Every batch costs 95-120 ms
// drift-corrected (medians of five interleaved runs of `flmbench pool`
// over 98 candidates on a 2-vCPU host), so both generators share one
// cost band and p50 sits in no gap.
var chaosPools = [2][]chaosBatch{
	{{284, 7, 1}, {241, 7, 1}, {273, 7, 1}, {207, 7, 1}, {212, 7, 1}, {240, 7, 1}, {260, 6, 2}, {287, 7, 1}},
	{{819, 5, 3}, {466, 5, 3}, {1226, 5, 3}, {754, 4, 4}, {2, 6, 2}, {264, 5, 3}, {1237, 6, 2}, {142, 6, 2}},
}

type chaosWorkload struct{ seed int64 }

// setup is the warm-up pass alone: the batches generate their schedules
// inside chaos.Run, so there is no input to build beforehand.
func (w *chaosWorkload) setup(h *harness) error {
	h.setupPass(w.pass(-1))
	return nil
}

// pass runs every pooled batch once: each pool in a seeded order, the
// two generators alternating (the pools are the same size), starting
// with a seeded one. Every pass is
// the same multiset, so a run's percentiles do not depend on which
// batches the seed happened to draw.
func (w *chaosWorkload) pass(k int) []op {
	r := newRNG(w.seed, 5, int64(k))
	var order [2][]int
	for g, pool := range chaosPools {
		order[g] = r.perm(len(pool))
	}
	first := r.intn(2)
	var ops []op
	for i := range order[0] {
		for j := 0; j < 2; j++ {
			g := (first + j) % 2
			ops = append(ops, chaosOp(chaosPools[g][order[g][i]], g == 1))
		}
	}
	return ops
}

func chaosConfig(seed int64, async bool) chaos.Config {
	return chaos.Config{Seed: seed, Trials: chaosTrials, Workers: 2, Async: async, Dead: async}
}

func chaosOp(b chaosBatch, async bool) op {
	kind := "sync"
	if async {
		kind = "async-dead"
	}
	return op{
		kind:  kind,
		input: fmt.Sprintf("master seed %d", b.seed),
		run: func(env *opEnv) (any, error) {
			var rep *chaos.Report
			err := env.call("bench.chaos", func() (err error) {
				rep, err = chaos.Run(env.ctx, chaosConfig(b.seed, async))
				return err
			})
			return rep, err
		},
		check: func(res any, st *opStats) (string, error) {
			rep := res.(*chaos.Report)
			if !rep.OK() {
				return "", fmt.Errorf("unexpected failures:\n%s", rep.Render())
			}
			if rep.Green != b.green || len(rep.Expected) != b.expected {
				return "", fmt.Errorf("green=%d expected=%d, the pool records green=%d expected=%d",
					rep.Green, len(rep.Expected), b.green, b.expected)
			}
			for _, f := range rep.Expected {
				if f.Shrunk == nil {
					return "", fmt.Errorf("trial %d: finding was not shrunk", f.Trial)
				}
				if chaos.RunSchedule(*f.Shrunk).Violation == nil {
					return "", fmt.Errorf("trial %d: shrunk schedule no longer violates: %s", f.Trial, f.Shrunk.Describe())
				}
			}
			st.findings = len(rep.Expected) + len(rep.Unexpected)
			return rep.Render(), nil
		},
	}
}

func (w *chaosWorkload) precheck() error { return coldPrecheck() }
func (w *chaosWorkload) close()          {}

// poolCandidate is one master seed of one generator.
type poolCandidate struct {
	seed  int64
	async bool
}

// scanPool prints, for every candidate, the batch's outcome and its
// median drift-corrected cold cost over reps runs: the data the pools
// are chosen from. The runs of all candidates are interleaved in a
// seeded order, so host drift spreads evenly over them and costs of
// the two generators are comparable.
func scanPool(cands []poolCandidate, reps int) {
	h := &harness{w: &chaosWorkload{}}
	costs := make([][]float64, len(cands))
	reports := make([]*chaos.Report, len(cands))
	for r := 0; r < reps; r++ {
		for _, i := range newRNG(int64(r), 8).perm(len(cands)) {
			c := cands[i]
			o := chaosOp(chaosBatch{seed: c.seed}, c.async)
			o.check = func(res any, _ *opStats) (string, error) {
				reports[i] = res.(*chaos.Report)
				if !reports[i].OK() {
					return "", fmt.Errorf("unexpected failures")
				}
				return "", nil
			}
			if s, ok := h.measure(o, nil); ok {
				costs[i] = append(costs[i], s.corr)
			}
		}
	}
	for _, e := range h.errors {
		fmt.Println("# FAILED", e)
	}
	for i, c := range cands {
		if len(costs[i]) == reps {
			fmt.Printf("%d %v %d %d %.1f\n", c.seed, c.async, reports[i].Green, len(reports[i].Expected), median(costs[i]))
		}
	}
}
