package approx

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"flm/internal/adversary"
	"flm/internal/graph"
	"flm/internal/sim"
)

func runApprox(t *testing.T, g *graph.Graph, honest sim.Builder, inputs map[string]float64,
	faulty map[string]sim.Builder, rounds int) (*sim.Run, []string) {
	t.Helper()
	in := make(map[string]sim.Input, g.N())
	for _, name := range g.Names() {
		in[name] = sim.RealInput(inputs[name])
	}
	trial := sim.Trial{G: g, Inputs: in, Honest: honest, Faulty: faulty, Rounds: rounds}
	run, correct, err := trial.Run(sim.FullRecording)
	if err != nil {
		t.Fatal(err)
	}
	return run, correct
}

func TestReduceWithinTrimmedRange(t *testing.T) {
	prop := func(raw []float64, fRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		f := int(fRaw) % 3
		if len(vals) <= 2*f {
			return true // degenerate fallback tested separately
		}
		got := Reduce(vals, f)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		lo, hi := sorted[f], sorted[len(sorted)-1-f]
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestReduceDegenerate(t *testing.T) {
	// len <= 2f: falls back to the median.
	if got := Reduce([]float64{1, 3}, 1); got != 2 {
		t.Errorf("Reduce degenerate = %v, want 2", got)
	}
	if got := Reduce([]float64{5}, 2); got != 5 {
		t.Errorf("Reduce degenerate = %v, want 5", got)
	}
}

func TestReduceZeroFaults(t *testing.T) {
	// f=0: plain mean.
	if got := Reduce([]float64{1, 2, 3, 6}, 0); got != 3 {
		t.Errorf("Reduce f=0 = %v, want 3", got)
	}
}

func TestMedianDeviceFaultFreeTriangle(t *testing.T) {
	g := graph.Triangle()
	run, correct := runApprox(t, g, NewMedian(1),
		map[string]float64{"a": 0, "b": 0.4, "c": 1}, nil, 3)
	rep := CheckSimple(run, correct)
	if !rep.OK() {
		t.Errorf("fault-free median failed: %v", rep.Err())
	}
	// All three see the same multiset, so all choose the median 0.4.
	for _, name := range correct {
		d, _ := run.DecisionOf(name)
		if v, _ := sim.DecodeReal(d.Value); v != 0.4 {
			t.Errorf("%s chose %v, want 0.4", name, v)
		}
	}
}

func TestDLPSWFaultFreeContraction(t *testing.T) {
	g := graph.Complete(4)
	inputs := map[string]float64{"p0": 0, "p1": 1, "p2": 0.25, "p3": 0.75}
	for _, rounds := range []int{1, 2, 4, 8} {
		run, correct := runApprox(t, g, NewDLPSW(1, g.Names(), rounds), inputs, nil, DLPSWRounds(rounds))
		outs, err := Outputs(run, correct)
		if err != nil {
			t.Fatal(err)
		}
		want := 1.0 / math.Pow(2, float64(rounds))
		if s := spread(outs); s > want+1e-12 {
			t.Errorf("rounds=%d: spread %v exceeds guaranteed %v", rounds, s, want)
		}
	}
}

func TestDLPSWOneFaultPanel(t *testing.T) {
	g := graph.Complete(4) // n = 3f+1 with f=1
	inputs := map[string]float64{"p0": 0, "p1": 0.2, "p2": 0.9, "p3": 1}
	honest := NewDLPSW(1, g.Names(), 8)
	noiseReals := adversary.Noise(3, "0", "1", "0.5", "100", "-100", "zzz")
	strategies := append(adversary.Panel(9), adversary.Strategy{
		Name:    "real-noise",
		Corrupt: func(inner sim.Builder) sim.Builder { return noiseReals },
	})
	for _, badNode := range g.Names() {
		for _, strat := range strategies {
			run, correct := runApprox(t, g, honest, inputs,
				map[string]sim.Builder{badNode: strat.Corrupt(honest)}, DLPSWRounds(8))
			rep := CheckEDG(run, correct, 0.01, 0)
			if !rep.OK() {
				t.Errorf("bad=%s strat=%s: %v", badNode, strat.Name, rep.Err())
			}
			// Validity of the simple problem too: outputs within the
			// correct input range.
			if simple := CheckSimple(run, correct); simple.Validity != nil {
				t.Errorf("bad=%s strat=%s: %v", badNode, strat.Name, simple.Validity)
			}
		}
	}
}

func TestDLPSWTwoFaults(t *testing.T) {
	g := graph.Complete(7) // n = 3f+1 with f=2
	inputs := map[string]float64{}
	for i, name := range g.Names() {
		inputs[name] = float64(i) / 6
	}
	honest := NewDLPSW(2, g.Names(), 10)
	strategies := adversary.Panel(21)
	for si, s1 := range strategies {
		s2 := strategies[(si+1)%len(strategies)]
		run, correct := runApprox(t, g, honest, inputs, map[string]sim.Builder{
			"p2": s1.Corrupt(honest),
			"p6": s2.Corrupt(honest),
		}, DLPSWRounds(10))
		rep := CheckEDG(run, correct, 0.01, 0)
		if !rep.OK() {
			t.Errorf("strats=%s/%s: %v", s1.Name, s2.Name, rep.Err())
		}
	}
}

func TestRoundsFor(t *testing.T) {
	tests := []struct {
		delta, eps float64
		want       int
	}{
		{1, 1, 1},
		{1, 0.5, 2},
		{1, 0.25, 3},
		{1, 0.1, 5},
		{0.05, 0.1, 1},
	}
	for _, tt := range tests {
		if got := RoundsFor(tt.delta, tt.eps); got != tt.want {
			t.Errorf("RoundsFor(%v,%v) = %d, want %d", tt.delta, tt.eps, got, tt.want)
		}
	}
}

func TestCheckSimpleViolations(t *testing.T) {
	g := graph.Triangle()
	// Deciding at round 0 means deciding on one's own value: outputs as
	// far apart as inputs -> agreement violated, validity fine.
	run, correct := runApprox(t, g, NewMedian(0),
		map[string]float64{"a": 0, "b": 0.5, "c": 1}, nil, 2)
	rep := CheckSimple(run, correct)
	if rep.Agreement == nil {
		t.Error("deciding on own value passed the strict-contraction condition")
	}
	if rep.Validity != nil {
		t.Errorf("own-value decision left the input range: %v", rep.Validity)
	}
}

func TestCheckEDGViolations(t *testing.T) {
	g := graph.Triangle()
	run, correct := runApprox(t, g, NewMedian(0),
		map[string]float64{"a": 0, "b": 0.5, "c": 1}, nil, 2)
	rep := CheckEDG(run, correct, 0.25, 0.1)
	if rep.Agreement == nil {
		t.Error("spread-1 outputs passed eps=0.25")
	}
	// gamma validity: outputs are the inputs themselves, inside range.
	if rep.Validity != nil {
		t.Errorf("unexpected validity violation: %v", rep.Validity)
	}
}

func TestOutputsErrors(t *testing.T) {
	g := graph.Triangle()
	run, correct := runApprox(t, g, NewMedian(100), // never decides
		map[string]float64{"a": 0, "b": 0, "c": 0}, nil, 2)
	if _, err := Outputs(run, correct); err == nil {
		t.Error("undecided node accepted")
	}
	rep := CheckSimple(run, correct)
	if rep.Termination == nil {
		t.Error("undecided run passed termination")
	}
}

func TestInputRange(t *testing.T) {
	g := graph.Triangle()
	run, correct := runApprox(t, g, NewMedian(1),
		map[string]float64{"a": -2, "b": 7, "c": 3}, nil, 3)
	lo, hi, err := InputRange(run, correct)
	if err != nil || lo != -2 || hi != 7 {
		t.Errorf("InputRange = %v,%v,%v", lo, hi, err)
	}
}
