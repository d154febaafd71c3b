// Byzantine generals: seven divisions must agree on ATTACK or RETREAT
// while up to two of their generals are traitors. EIG reaches agreement
// on the full council (K7); the same council communicating only through a
// sparse courier network still succeeds as long as the network has
// connectivity 2f+1, using Dolev's disjoint-path routing.
package main

import (
	"fmt"
	"log"

	"flm"
)

const (
	attack  = true
	retreat = false
)

func runCouncil(g *flm.Graph, honest flm.Builder, rounds int,
	votes map[string]bool, traitors map[string]flm.Builder) {
	inputs := make(map[string]flm.Input, g.N())
	for _, name := range g.Names() {
		inputs[name] = flm.BoolInput(votes[name])
	}
	trial := flm.ByzantineTrial{G: g, Inputs: inputs, Honest: honest, Faulty: traitors, Rounds: rounds}
	run, loyal, rep, err := trial.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  loyal generals agree: %v\n", rep.OK())
	for _, name := range loyal {
		d, _ := run.DecisionOf(name)
		order := "RETREAT"
		if d.Value == "1" {
			order = "ATTACK"
		}
		fmt.Printf("    %s -> %s (round %d)\n", name, order, d.Round)
	}
}

func main() {
	// Full council: K7, two traitors (f=2).
	g := flm.Complete(7)
	votes := map[string]bool{
		"p0": attack, "p1": attack, "p2": attack, "p3": retreat,
		"p4": attack, "p5": retreat, "p6": attack,
	}
	honest := flm.NewEIG(2, g.Names())
	fmt.Println("Council of seven (K7), traitors p2 and p5:")
	fmt.Println("  p2 equivocates (tells half ATTACK, half RETREAT); p5 stays silent.")
	traitors := map[string]flm.Builder{
		"p2": flm.Equivocate(honest, flm.BoolInput(retreat), flm.BoolInput(attack),
			func(nb string) bool { return nb < "p3" }),
		"p5": flm.Silent(),
	}
	runCouncil(g, honest, flm.EIGRounds(2), votes, traitors)

	// Courier network: the wheel W7 has only 10 of K7's 21 roads but
	// still connectivity 3 = 2f+1 for f=1; Dolev routing carries the
	// same agreement.
	sparse := flm.Wheel(7)
	router, err := flm.NewRouter(sparse, 1)
	if err != nil {
		log.Fatal(err)
	}
	overlay := flm.Overlay(router, flm.NewEIG(1, sparse.Names()))
	sparseVotes := map[string]bool{
		"w0": attack, "w1": attack, "w2": retreat, "w3": attack,
		"w4": attack, "w5": retreat, "w6": attack,
	}
	fmt.Printf("\nCourier network (wheel, connectivity %d), traitor at the hub w0:\n",
		sparse.VertexConnectivity())
	fmt.Printf("  each message travels %d vertex-disjoint paths (stretch %d rounds/step)\n",
		router.NumPaths(), router.StretchFactor())
	runCouncil(sparse, overlay, router.Rounds(flm.EIGRounds(1)), sparseVotes,
		map[string]flm.Builder{"w0": flm.Noise(42)})

	// And the punchline: with only three generals and one traitor there
	// is no protocol at all — the hexagon argument defeats EIG itself.
	tri := flm.Triangle()
	builders := map[string]flm.Builder{}
	for _, name := range tri.Names() {
		builders[name] = flm.NewEIG(1, tri.Names())
	}
	cr, err := flm.ProveByzantineTriangle(builders, "eig", 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nThree generals, one traitor (FLM85 Theorem 1):\n%s", cr)

	// ...unless the generals seal their orders: with unforgeable
	// signatures the Fault axiom breaks, and Dolev-Strong agreement works
	// on the very same triangle (the paper's own caveat).
	reg := flm.NewSigRegistry()
	signedHonest := flm.NewDolevStrong(1, tri.Names(), reg)
	signedVotes := map[string]bool{"a": attack, "b": attack, "c": retreat}
	fmt.Println("\nThe same three generals with signed orders (Dolev-Strong), traitor c equivocating:")
	runCouncil(tri, signedHonest, flm.DolevStrongRounds(1), signedVotes,
		map[string]flm.Builder{"c": flm.Equivocate(signedHonest,
			flm.BoolInput(retreat), flm.BoolInput(attack),
			func(nb string) bool { return nb == "a" })})
}
