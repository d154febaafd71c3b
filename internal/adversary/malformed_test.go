package adversary

import (
	"errors"
	"fmt"
	"testing"

	"flm/internal/approx"
	"flm/internal/byzantine"
	"flm/internal/graph"
	"flm/internal/sim"
)

// malformedPayloads are payloads no honest device sends: the empty
// payload (no message), text, booleans and reals out of range, numbers
// too large to represent, non-finite reals, and numbers in forms the
// canonical encodings never take.
var malformedPayloads = []sim.Payload{
	"", "zz", "2", "-1", "1e999999", "NaN", "Inf", "1e400", "1.7976931348623157e308", "0x1p3", " 1",
}

// malformedRotations is how many scripts each faulty node is tried
// with: one starting at every payload with stride 1, then four with
// stride 2.
const malformedRotations = 15

// malformedScripts is the Fault-axiom behavior of faulty node bad in
// rotation r: in round k it sends its j-th neighbor (in name order)
// payload offset + stride·(k·(n-1) + j) of malformedPayloads, where
// offset and stride are r's position and pass through the list.
func malformedScripts(g *graph.Graph, bad string, rounds, r int) sim.Builder {
	m := len(malformedPayloads)
	offset, stride := r%m, 1+r/m
	scripts := make(map[string][]sim.Payload, g.N()-1)
	j := 0
	for _, nb := range g.Names() {
		if nb == bad {
			continue
		}
		seq := make([]sim.Payload, rounds)
		for k := range seq {
			seq[k] = malformedPayloads[(offset+stride*(k*(g.N()-1)+j))%m]
		}
		scripts[nb] = seq
		j++
	}
	return sim.ReplayBuilder(scripts)
}

// checkMalformedRun fails the test on a device fault or any other
// execution error of a malformed-payload trial.
func checkMalformedRun(t *testing.T, label string, err error) {
	t.Helper()
	var fault *sim.DeviceFault
	if errors.As(err, &fault) {
		t.Fatalf("%s: a correct device faulted on malformed payloads: %v", label, fault)
	}
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestPhaseKingSurvivesMalformedPayloads: a phase-king node on K5
// (n = 4f+1, f = 1) that reads a malformed payload neither faults nor
// lets it break agreement, validity or termination, for every input
// pattern, faulty node and rotation.
func TestPhaseKingSurvivesMalformedPayloads(t *testing.T) {
	g := graph.Complete(5)
	honest := byzantine.NewPhaseKing(1, g.Names())
	rounds := byzantine.PhaseKingRounds(1)
	for bits := 0; bits < 1<<uint(g.N()); bits++ {
		inputs := make(map[string]sim.Input, g.N())
		for i, name := range g.Names() {
			inputs[name] = sim.BoolInput(bits&(1<<uint(i)) != 0)
		}
		for _, bad := range g.Names() {
			for r := 0; r < malformedRotations; r++ {
				trial := byzantine.Trial{
					G: g, Inputs: inputs, Honest: honest, Rounds: rounds,
					Faulty: map[string]sim.Builder{bad: malformedScripts(g, bad, rounds, r)},
				}
				_, _, rep, err := trial.RunWith(sim.ExecuteOpts{})
				label := fmt.Sprintf("bits=%#x bad=%s rotation %d", bits, bad, r)
				checkMalformedRun(t, label, err)
				if !rep.OK() {
					t.Errorf("%s: %v", label, rep.Err())
				}
			}
		}
	}
}

// TestDLPSWSurvivesMalformedPayloads: DLPSW nodes on K4 with f = 1 and
// on K7 with f = 2 that read malformed payloads neither fault nor let
// them push an output outside the correct input range or keep the
// spread from shrinking, for every faulty set of size f and rotation.
func TestDLPSWSurvivesMalformedPayloads(t *testing.T) {
	const averaging = 3
	rounds := approx.DLPSWRounds(averaging)
	for _, c := range []struct {
		g *graph.Graph
		f int
	}{{graph.Complete(4), 1}, {graph.Complete(7), 2}} {
		names := c.g.Names()
		n := len(names)
		honest := approx.NewDLPSW(c.f, names, averaging)
		for _, p := range []struct {
			tag   string
			value func(i int) float64
		}{
			{"rising", func(i int) float64 { return float64(i) / float64(n-1) }},
			{"alternating", func(i int) float64 { return float64(i % 2) }},
			{"equal", func(int) float64 { return 0.5 }},
		} {
			inputs := make(map[string]sim.Input, n)
			for i, name := range names {
				inputs[name] = sim.RealInput(p.value(i))
			}
			for _, bad := range faultySets(names, c.f) {
				for r := 0; r < malformedRotations; r++ {
					faulty := make(map[string]sim.Builder, len(bad))
					for _, name := range bad {
						faulty[name] = malformedScripts(c.g, name, rounds, r)
					}
					trial := sim.Trial{G: c.g, Inputs: inputs, Honest: honest, Faulty: faulty, Rounds: rounds}
					run, correct, err := trial.Run(sim.ExecuteOpts{})
					label := fmt.Sprintf("K%d %s bad=%v rotation %d", n, p.tag, bad, r)
					checkMalformedRun(t, label, err)
					if rep := approx.CheckSimple(run, correct); !rep.OK() {
						t.Errorf("%s: %v", label, rep.Err())
					}
				}
			}
		}
	}
}

// faultySets lists every k-subset of names in lexicographic order.
func faultySets(names []string, k int) [][]string {
	if k == 0 {
		return [][]string{nil}
	}
	var out [][]string
	for i := range names {
		for _, rest := range faultySets(names[i+1:], k-1) {
			out = append(out, append([]string{names[i]}, rest...))
		}
	}
	return out
}
