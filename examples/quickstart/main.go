// Quickstart: check a graph's adequacy, reach Byzantine agreement on an
// adequate graph, and watch the FLM85 engine defeat the same protocol on
// an inadequate one.
package main

import (
	"fmt"
	"log"

	"flm"
)

func main() {
	// 1. Adequacy: tolerating f Byzantine faults needs n >= 3f+1 nodes
	// and connectivity >= 2f+1 (FLM85).
	for _, c := range []struct {
		name string
		g    *flm.Graph
		f    int
	}{
		{"triangle K3", flm.Triangle(), 1},
		{"complete K4", flm.Complete(4), 1},
		{"diamond (conn 2)", flm.Diamond(), 1},
		{"wheel W7 (conn 3)", flm.Wheel(7), 1},
	} {
		fmt.Printf("%-18s f=%d adequate=%v (max tolerable f=%d)\n",
			c.name, c.f, flm.Adequate(c.g, c.f), flm.MaxTolerableFaults(c.g))
	}

	// 2. On K4, EIG reaches agreement with one Byzantine node: here the
	// traitor p3 stays silent.
	g := flm.Complete(4)
	inputs := map[string]flm.Input{}
	for i, name := range g.Names() {
		inputs[name] = flm.BoolInput(i%2 == 0)
	}
	trial := flm.ByzantineTrial{
		G: g, Inputs: inputs, Honest: flm.NewEIG(1, g.Names()),
		Faulty: map[string]flm.Builder{"p3": flm.Silent()},
		Rounds: flm.EIGRounds(1),
	}
	run, correct, rep, err := trial.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nEIG on K4 with silent p3: agreement OK = %v\n", rep.OK())
	for _, name := range correct {
		d, _ := run.DecisionOf(name)
		fmt.Printf("  %s decided %s at round %d\n", name, d.Value, d.Round)
	}

	// 3. The same protocol on the triangle (n = 3f) cannot work: the
	// engine constructs the paper's hexagon argument and exhibits the
	// violated condition.
	tri := flm.Triangle()
	builders := map[string]flm.Builder{}
	for _, name := range tri.Names() {
		builders[name] = flm.NewEIG(1, tri.Names())
	}
	cr, err := flm.ProveByzantineTriangle(builders, "eig", 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s", cr)
}
