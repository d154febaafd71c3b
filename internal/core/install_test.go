package core

import (
	"reflect"
	"sort"
	"testing"

	"flm/internal/byzantine"
	"flm/internal/graph"
	"flm/internal/sim"
)

func hexInputs(v0, v1 sim.Input) map[string]sim.Input {
	return map[string]sim.Input{
		"r0": v0, "r1": v0, "r2": v0,
		"r3": v1, "r4": v1, "r5": v1,
	}
}

func TestInstallCoverValidation(t *testing.T) {
	cover := graph.HexCover()
	builders := uniformBuilders(graph.Triangle(), byzantine.NewMajority(2))
	// Missing input.
	inputs := hexInputs("0", "1")
	delete(inputs, "r4")
	if _, err := InstallCover(cover, builders, inputs); err == nil {
		t.Error("missing input accepted")
	}
	// Missing builder.
	partial := map[string]sim.Builder{"a": byzantine.NewMajority(2)}
	if _, err := InstallCover(cover, partial, hexInputs("0", "1")); err == nil {
		t.Error("missing builder accepted")
	}
	// Invalid cover.
	bad := &graph.Cover{S: graph.Ring(4), G: graph.Triangle(), Phi: []int{0, 1, 2, 0}}
	if _, err := InstallCover(bad, builders, map[string]sim.Input{
		"r0": "0", "r1": "0", "r2": "0", "r3": "0",
	}); err == nil {
		t.Error("invalid cover accepted")
	}
}

// The covering property made concrete: with UNIFORM inputs the hexagon is
// globally indistinguishable from the triangle, so every S-node's
// snapshot sequence equals its image's in the plain triangle run.
func TestInstallCoverIndistinguishability(t *testing.T) {
	tri := graph.Triangle()
	builders := uniformBuilders(tri, byzantine.NewEIG(1, tri.Names()))
	cover := graph.HexCover()
	inst, err := InstallCover(cover, builders, hexInputs("1", "1"))
	if err != nil {
		t.Fatal(err)
	}
	runS, err := inst.Execute(5)
	if err != nil {
		t.Fatal(err)
	}
	p := sim.Protocol{Builders: builders, Inputs: map[string]sim.Input{"a": "1", "b": "1", "c": "1"}}
	sys, err := sim.NewSystem(tri, p)
	if err != nil {
		t.Fatal(err)
	}
	runG, err := sim.Execute(sys, 5)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < cover.S.N(); s++ {
		sName := cover.S.Name(s)
		gName := cover.G.Name(cover.Phi[s])
		div, err := sim.PrefixEqual(runS, sName, runG, gName)
		if err != nil {
			t.Fatal(err)
		}
		if div != 5 {
			t.Errorf("%s diverged from %s at round %d despite uniform inputs", sName, gName, div)
		}
	}
}

// TestInstallCoverPermutesPorts installs port-sensitive devices on a
// double cover of the triangle whose S-names are chosen so that at every
// S-node the S-neighbors sort in a different order than their G-images:
// the renamed device must permute ports, not copy them. With uniform
// inputs S is indistinguishable from G, so every S-node must replay its
// image's G-run snapshots, and every S-edge must carry its image edge's
// traffic.
func TestInstallCoverPermutesPorts(t *testing.T) {
	tri := graph.Triangle()
	s := graph.MustNew("z", "v", "x", "w", "y", "u") // ring order; images a b c a b c
	for i := 0; i < 6; i++ {
		s.MustAddEdge(i, (i+1)%6)
	}
	cover := &graph.Cover{S: s, G: tri, Phi: []int{0, 1, 2, 0, 1, 2}}
	for sn := 0; sn < s.N(); sn++ {
		var sNames []string
		for _, nb := range s.Neighbors(sn) {
			sNames = append(sNames, s.Name(nb))
		}
		sort.Strings(sNames)
		var images []string
		for _, name := range sNames {
			images = append(images, tri.Name(cover.Phi[s.MustIndex(name)]))
		}
		if sort.StringsAreSorted(images) {
			t.Fatalf("S-node %s: neighbors %v sort like their images %v; the cover tests no permutation", s.Name(sn), sNames, images)
		}
	}
	builders := uniformBuilders(tri, newTableDevice(11, 3, true))
	inputs := map[string]sim.Input{}
	for _, name := range s.Names() {
		inputs[name] = "1"
	}
	inst, err := InstallCover(cover, builders, inputs)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 4
	runS, err := inst.Execute(rounds)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.NewSystem(tri, sim.Protocol{Builders: builders, Inputs: map[string]sim.Input{"a": "1", "b": "1", "c": "1"}})
	if err != nil {
		t.Fatal(err)
	}
	runG, err := sim.Execute(sys, rounds)
	if err != nil {
		t.Fatal(err)
	}
	for sn := 0; sn < s.N(); sn++ {
		sName, gName := s.Name(sn), tri.Name(cover.Phi[sn])
		if div, err := sim.PrefixEqual(runS, sName, runG, gName); err != nil || div != rounds {
			t.Errorf("%s diverged from its image %s at round %d (%v)", sName, gName, div, err)
		}
		for _, nb := range s.Neighbors(sn) {
			seqS, _ := runS.EdgeBehavior(sName, s.Name(nb))
			seqG, _ := runG.EdgeBehavior(gName, tri.Name(cover.Phi[nb]))
			if !reflect.DeepEqual(seqS, seqG) {
				t.Errorf("edge %s->%s carried %q, its image edge %q", sName, s.Name(nb), seqS, seqG)
			}
		}
	}
}

// Executing an installation twice yields identical behavior (fresh
// devices each time).
func TestInstallationReusable(t *testing.T) {
	cover := graph.HexCover()
	builders := uniformBuilders(graph.Triangle(), byzantine.NewMajority(2))
	inst, err := InstallCover(cover, builders, hexInputs("0", "1"))
	if err != nil {
		t.Fatal(err)
	}
	runA, err := inst.Execute(6)
	if err != nil {
		t.Fatal(err)
	}
	runB, err := inst.Execute(6)
	if err != nil {
		t.Fatal(err)
	}
	scA, _ := sim.Extract(runA, cover.S.Names())
	scB, _ := sim.Extract(runB, cover.S.Names())
	if err := scA.EqualUnder(scB, nil, true); err != nil {
		t.Errorf("re-execution diverged: %v", err)
	}
}

func TestSpliceValidation(t *testing.T) {
	cover := graph.HexCover()
	builders := uniformBuilders(graph.Triangle(), byzantine.NewMajority(2))
	inst, err := InstallCover(cover, builders, hexInputs("0", "1"))
	if err != nil {
		t.Fatal(err)
	}
	runS, err := inst.Execute(6)
	if err != nil {
		t.Fatal(err)
	}
	// Antipodal nodes map to the same G-node: not injective.
	if _, err := SpliceScenario(inst, runS, []int{0, 3}, builders); err == nil {
		t.Error("non-injective scenario accepted")
	}
	// Non-adjacent S-nodes whose images are adjacent: not isomorphic.
	if _, err := SpliceScenario(inst, runS, []int{0, 2}, builders); err == nil {
		t.Error("non-isomorphic scenario accepted")
	}
	// Missing builder for a correct node.
	if _, err := SpliceScenario(inst, runS, []int{1, 2},
		map[string]sim.Builder{"b": byzantine.NewMajority(2)}); err == nil {
		t.Error("missing builder accepted")
	}
}

// Splicing the whole fiber-free subset (a single node) works: one correct
// node, two faulty masqueraders.
func TestSpliceSingleNode(t *testing.T) {
	cover := graph.HexCover()
	builders := uniformBuilders(graph.Triangle(), byzantine.NewMajority(2))
	inst, err := InstallCover(cover, builders, hexInputs("0", "1"))
	if err != nil {
		t.Fatal(err)
	}
	runS, err := inst.Execute(6)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SpliceScenario(inst, runS, []int{4}, builders)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Correct) != 1 || len(sp.Faulty) != 2 {
		t.Errorf("splice shape: %v / %v", sp.Correct, sp.Faulty)
	}
	if _, err := sp.DecisionOfS("r4"); err != nil {
		t.Errorf("DecisionOfS: %v", err)
	}
	if _, err := sp.DecisionOfS("r1"); err == nil {
		t.Error("DecisionOfS accepted a node outside the splice")
	}
}
