package core

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"flm/internal/approx"
	"flm/internal/byzantine"
	"flm/internal/firingsquad"
	"flm/internal/graph"
	"flm/internal/sim"
	"flm/internal/weak"
)

var updateChains = flag.Bool("update", false, "rewrite testdata/chains.golden")

const chainsGolden = "testdata/chains.golden"

// chainCase is one call of an exported driver.
type chainCase struct {
	name string
	run  func() (*ChainResult, error)
}

// goldenChains lists one or more instances of every exported driver,
// including devices that already fail the base runs of Theorems 2 and 4.
func goldenChains() []chainCase {
	tri, dia := graph.Triangle(), graph.Diamond()
	k5, k6 := graph.Complete(5), graph.Complete(6)
	circ := graph.Circulant(10, 1, 2)
	edg := EDGParams{Eps: 0.2, Delta: 1, Gamma: 0.5}
	var cs []chainCase
	add := func(name string, run func() (*ChainResult, error)) {
		cs = append(cs, chainCase{name, run})
	}
	for _, d := range []struct {
		name string
		b    sim.Builder
	}{
		{"majority", byzantine.NewMajority(2)},
		{"const-0", byzantine.NewConstant("0", 2)},
		{"const-1", byzantine.NewConstant("1", 2)},
		{"own-input", byzantine.NewOwnInput(2)},
		{"eig", byzantine.NewEIG(1, tri.Names())},
	} {
		add("ByzantineTriangle/"+d.name, func() (*ChainResult, error) {
			return ByzantineTriangle(uniformBuilders(tri, d.b), d.name, 8)
		})
	}
	add("ByzantineNodes/K5-eig", func() (*ChainResult, error) {
		return ByzantineNodes(k5, 2, []int{0, 1}, []int{2, 3}, []int{4},
			uniformBuilders(k5, byzantine.NewEIG(2, k5.Names())), "eig-f2", byzantine.EIGRounds(2)+2)
	})
	add("ByzantineNodes/K6-majority", func() (*ChainResult, error) {
		return ByzantineNodes(k6, 2, []int{0, 1}, []int{2, 3}, []int{4, 5},
			uniformBuilders(k6, byzantine.NewMajority(3)), "majority", 6)
	})
	for _, d := range []struct {
		name string
		b    sim.Builder
	}{
		{"majority", byzantine.NewMajority(3)},
		{"const-0", byzantine.NewConstant("0", 3)},
	} {
		add("ByzantineDiamond/"+d.name, func() (*ChainResult, error) {
			return ByzantineDiamond(uniformBuilders(dia, d.b), d.name, 10)
		})
	}
	add("ByzantineConnectivity/circulant10-eig", func() (*ChainResult, error) {
		return ByzantineConnectivity(circ, 2, []int{1, 9}, []int{2, 8}, 0, 5,
			uniformBuilders(circ, byzantine.NewEIG(2, circ.Names())), "eig-f2", byzantine.EIGRounds(2)+4)
	})
	for _, d := range []struct {
		name string
		b    sim.Builder
	}{
		{"detect-default", weak.NewDetectDefault(3)},
		{"via-eig", weak.NewViaBA(1, tri.Names())},
		{"own-input", byzantine.NewOwnInput(2)},
		{"const-0", byzantine.NewConstant("0", 2)},
	} {
		add("WeakAgreementRing/"+d.name, func() (*ChainResult, error) {
			return WeakAgreementRing(uniformBuilders(tri, d.b), d.name, 16)
		})
	}
	for _, d := range []struct {
		name string
		b    sim.Builder
	}{
		{"detect-default", weak.NewDetectDefault(4)},
		{"majority", byzantine.NewMajority(3)},
	} {
		add("WeakAgreementCutRing/"+d.name, func() (*ChainResult, error) {
			return WeakAgreementCutRing(dia, 1, []int{1}, []int{3}, 0, 2, uniformBuilders(dia, d.b), d.name, 20)
		})
	}
	for _, d := range []struct {
		name string
		b    sim.Builder
	}{
		{"detect-default", weak.NewDetectDefault(3)},
		{"majority", byzantine.NewMajority(2)},
	} {
		add("WeakAgreementNodesRing/"+d.name, func() (*ChainResult, error) {
			return WeakAgreementNodesRing(k6, 2, []int{0, 1}, []int{2, 3}, []int{4, 5},
				uniformBuilders(k6, d.b), d.name, 16)
		})
	}
	for _, d := range []struct {
		name string
		b    sim.Builder
	}{
		{"countdown-2", firingsquad.NewCountdown(2)},
		{"via-eig", firingsquad.NewViaBA(1, tri.Names())},
		{"countdown-100", firingsquad.NewCountdown(100)},
	} {
		add("FiringSquadRing/"+d.name, func() (*ChainResult, error) {
			return FiringSquadRing(uniformBuilders(tri, d.b), d.name, 20)
		})
	}
	for _, d := range []struct {
		name string
		b    sim.Builder
	}{
		{"countdown-2", firingsquad.NewCountdown(2)},
		{"countdown-5", firingsquad.NewCountdown(5)},
		{"countdown-100", firingsquad.NewCountdown(100)},
	} {
		add("FiringSquadCutRing/"+d.name, func() (*ChainResult, error) {
			return FiringSquadCutRing(dia, 1, []int{1}, []int{3}, 0, 2, uniformBuilders(dia, d.b), d.name, 30)
		})
	}
	for _, d := range []struct {
		name string
		b    sim.Builder
	}{
		{"countdown-2", firingsquad.NewCountdown(2)},
		{"via-eig", firingsquad.NewViaBA(2, k6.Names())},
	} {
		add("FiringSquadNodesRing/"+d.name, func() (*ChainResult, error) {
			return FiringSquadNodesRing(k6, 2, []int{0, 1}, []int{2, 3}, []int{4, 5},
				uniformBuilders(k6, d.b), d.name, 32)
		})
	}
	for _, d := range []struct {
		name string
		b    sim.Builder
	}{
		{"median", approx.NewMedian(2)},
		{"dlpsw-2", approx.NewDLPSW(1, tri.Names(), 2)},
		{"own-value", approx.NewMedian(0)},
	} {
		add("SimpleApproxTriangle/"+d.name, func() (*ChainResult, error) {
			return SimpleApproxTriangle(uniformBuilders(tri, d.b), d.name, 12)
		})
	}
	add("SimpleApproxNodes/K6-dlpsw", func() (*ChainResult, error) {
		return SimpleApproxNodes(k6, 2, []int{0, 1}, []int{2, 3}, []int{4, 5},
			uniformBuilders(k6, approx.NewDLPSW(2, k6.Names(), 4)), "dlpsw", 12)
	})
	for _, d := range []struct {
		name string
		b    sim.Builder
	}{
		{"median", approx.NewMedian(3)},
		{"dlpsw-4", approx.NewDLPSW(1, dia.Names(), 4)},
	} {
		add("SimpleApproxConnectivity/"+d.name, func() (*ChainResult, error) {
			return SimpleApproxConnectivity(dia, 1, []int{1}, []int{3}, 0, 2, uniformBuilders(dia, d.b), d.name, 12)
		})
	}
	for _, d := range []struct {
		name string
		b    sim.Builder
	}{
		{"median", approx.NewMedian(2)},
		{"dlpsw-4", approx.NewDLPSW(1, tri.Names(), 4)},
	} {
		add("EpsilonDeltaGamma/"+d.name, func() (*ChainResult, error) {
			return EpsilonDeltaGamma(edg, uniformBuilders(tri, d.b), d.name, 10)
		})
	}
	add("EpsilonDeltaGammaNodes/K6-dlpsw", func() (*ChainResult, error) {
		return EpsilonDeltaGammaNodes(edg, k6, 2, []int{0, 1}, []int{2, 3}, []int{4, 5},
			uniformBuilders(k6, approx.NewDLPSW(2, k6.Names(), 4)), "dlpsw", 10)
	})
	add("EpsilonDeltaGammaConnectivity/median", func() (*ChainResult, error) {
		return EpsilonDeltaGammaConnectivity(edg, dia, 1, []int{1}, []int{3}, 0, 2,
			uniformBuilders(dia, approx.NewMedian(2)), "median", 10)
	})
	return cs
}

// renderChain records what a chain is: its rendering, the cover size,
// the rounds of the covering run, and each link's spliced S-nodes and
// correct and faulty G-sets.
func renderChain(b *strings.Builder, name string, cr *ChainResult) {
	fmt.Fprintf(b, "=== %s\n%s", name, cr)
	rounds := -1
	if cr.RunS != nil {
		rounds = cr.RunS.Rounds
	}
	fmt.Fprintf(b, "cover %d, S rounds %d\n", cr.CoverSize, rounds)
	for _, l := range cr.Links {
		var spliced []string
		if l.Splice != nil {
			spliced = l.Splice.UNodes
		}
		fmt.Fprintf(b, "  %s: spliced {%s} correct {%s} faulty {%s}\n", l.Name,
			strings.Join(spliced, ","), strings.Join(l.Correct, ","), strings.Join(l.Faulty, ","))
	}
}

// TestChainsGolden pins every link of every chain above: link names and
// order, expectations, correct, faulty and spliced sets, and violations.
// Run with -update to rewrite the golden file.
func TestChainsGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenChains() {
		cr, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		renderChain(&b, c.name, cr)
	}
	got := b.String()
	if *updateChains {
		if err := os.WriteFile(chainsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(chainsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("chains differ from %s at line %d:\n got %q\nwant %q", chainsGolden, i+1, g, w)
			}
		}
	}
}

// TestChainsRejectInvalidInputs: every driver refuses arguments the
// paper's construction does not cover, before it reports a chain.
func TestChainsRejectInvalidInputs(t *testing.T) {
	tri, dia := graph.Triangle(), graph.Diamond()
	k4, k5 := graph.Complete(4), graph.Complete(5)
	edg := EDGParams{Eps: 0.2, Delta: 1, Gamma: 0.5}
	ba := func(g *graph.Graph) map[string]sim.Builder { return uniformBuilders(g, byzantine.NewMajority(3)) }
	wk := func(g *graph.Graph) map[string]sim.Builder { return uniformBuilders(g, weak.NewDetectDefault(3)) }
	fs := func(g *graph.Graph) map[string]sim.Builder { return uniformBuilders(g, firingsquad.NewCountdown(2)) }
	ap := func(g *graph.Graph) map[string]sim.Builder { return uniformBuilders(g, approx.NewMedian(2)) }
	for _, c := range []chainCase{
		{"ByzantineNodes/adequate", func() (*ChainResult, error) {
			return ByzantineNodes(k4, 1, []int{0}, []int{1}, []int{2, 3}, ba(k4), "x", 6)
		}},
		{"ByzantineNodes/block-over-f", func() (*ChainResult, error) {
			return ByzantineNodes(k5, 2, []int{0, 1, 2}, []int{3}, []int{4}, ba(k5), "x", 6)
		}},
		{"ByzantineNodes/empty-block", func() (*ChainResult, error) {
			return ByzantineNodes(tri, 1, []int{0}, []int{1, 2}, nil, ba(tri), "x", 6)
		}},
		{"ByzantineNodes/not-covering", func() (*ChainResult, error) {
			return ByzantineNodes(k4, 2, []int{0}, []int{1}, []int{2}, ba(k4), "x", 6)
		}},
		{"ByzantineConnectivity/cut-over-f", func() (*ChainResult, error) {
			return ByzantineConnectivity(dia, 1, []int{1, 0}, []int{3}, 0, 2, ba(dia), "x", 6)
		}},
		{"SimpleApproxNodes/block-over-f", func() (*ChainResult, error) {
			return SimpleApproxNodes(k5, 2, []int{0, 1, 2}, []int{3}, []int{4}, ap(k5), "x", 8)
		}},
		{"SimpleApproxNodes/overlap", func() (*ChainResult, error) {
			return SimpleApproxNodes(tri, 1, []int{0}, []int{0}, []int{2}, ap(tri), "x", 8)
		}},
		{"SimpleApproxConnectivity/cut-over-f", func() (*ChainResult, error) {
			return SimpleApproxConnectivity(dia, 1, []int{1}, []int{3, 0}, 0, 2, ap(dia), "x", 8)
		}},
		{"WeakAgreementRing/horizon", func() (*ChainResult, error) {
			return WeakAgreementRing(wk(tri), "x", 4)
		}},
		{"WeakAgreementNodesRing/block-over-f", func() (*ChainResult, error) {
			return WeakAgreementNodesRing(k5, 2, []int{0, 1, 2}, []int{3}, []int{4}, wk(k5), "x", 12)
		}},
		{"WeakAgreementNodesRing/out-of-range", func() (*ChainResult, error) {
			return WeakAgreementNodesRing(tri, 1, []int{0}, []int{1}, []int{5}, wk(tri), "x", 12)
		}},
		{"WeakAgreementCutRing/non-cut", func() (*ChainResult, error) {
			return WeakAgreementCutRing(k4, 1, []int{1}, []int{3}, 0, 2, wk(k4), "x", 20)
		}},
		{"FiringSquadRing/horizon", func() (*ChainResult, error) {
			return FiringSquadRing(fs(tri), "x", 3)
		}},
		{"FiringSquadNodesRing/block-over-f", func() (*ChainResult, error) {
			return FiringSquadNodesRing(k5, 2, []int{0}, []int{1, 2, 3}, []int{4}, fs(k5), "x", 20)
		}},
		{"FiringSquadCutRing/cut-over-f", func() (*ChainResult, error) {
			return FiringSquadCutRing(dia, 1, []int{1, 0}, []int{3}, 0, 2, fs(dia), "x", 20)
		}},
		{"EpsilonDeltaGamma/trivial", func() (*ChainResult, error) {
			return EpsilonDeltaGamma(EDGParams{Eps: 1, Delta: 1, Gamma: 0.5}, ap(tri), "x", 10)
		}},
		{"EpsilonDeltaGammaNodes/block-over-f", func() (*ChainResult, error) {
			return EpsilonDeltaGammaNodes(edg, k5, 2, []int{0}, []int{1}, []int{2, 3, 4}, ap(k5), "x", 10)
		}},
		{"EpsilonDeltaGammaConnectivity/cut-over-f", func() (*ChainResult, error) {
			return EpsilonDeltaGammaConnectivity(edg, dia, 1, []int{1}, []int{3, 0}, 0, 2, ap(dia), "x", 10)
		}},
	} {
		if cr, err := c.run(); err == nil {
			t.Errorf("%s: accepted, chain:\n%s", c.name, cr)
		}
	}
}
