package core

import (
	"testing"

	"flm/internal/byzantine"
	"flm/internal/firingsquad"
	"flm/internal/graph"
	"flm/internal/sim"
	"flm/internal/weak"
)

// TestRingMiddlesSelfCheck: the Lemma 3 self-check passes on a ring's
// covering run against the chain's own base runs, and fails when the
// halves' base runs are swapped, on the triangle ring and on a ring of
// blocks.
func TestRingMiddlesSelfCheck(t *testing.T) {
	tri, k6 := graph.Triangle(), graph.Complete(6)
	a, b, c := []int{0, 1}, []int{2, 3}, []int{4, 5}
	block, err := graph.Partition(k6, 2, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		run   func() (*ChainResult, error)
		width int
		build func(t int) (ring, error)
	}{
		{"triangle", func() (*ChainResult, error) {
			return WeakAgreementRing(uniformBuilders(tri, weak.NewDetectDefault(3)), "detect-default", 16)
		}, 1, triangleRing},
		{"blocks", func() (*ChainResult, error) {
			return FiringSquadNodesRing(k6, 2, a, b, c, uniformBuilders(k6, firingsquad.NewCountdown(2)), "countdown-2", 32)
		}, k6.N(), blockRing(k6, block, a, b, c)},
	} {
		cr, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		k := cr.CoverSize / (4 * tc.width)
		r, err := tc.build(k - 1) // the ring the chain built: k is above t = k-1
		if err != nil || r.k != k {
			t.Fatalf("%s: rebuilt ring has k=%d (%v), want %d", tc.name, r.k, err, k)
		}
		base := [2]*sim.Run{cr.Links[0].Splice.Run, cr.Links[1].Splice.Run}
		if err := r.middles(base)(cr.RunS); err != nil {
			t.Errorf("%s: self-check failed on the chain's own runs: %v", tc.name, err)
		}
		if err := r.middles([2]*sim.Run{base[1], base[0]})(cr.RunS); err == nil {
			t.Errorf("%s: self-check passed with the base runs swapped", tc.name)
		}
	}
}

// TestRunRejectsLinkOverF: the runner refuses a link with more faulty
// nodes than the chain's f, whatever plan it is given.
func TestRunRejectsLinkOverF(t *testing.T) {
	tri := graph.Triangle()
	tc, err := partitionCover(tri, 1, []int{0}, []int{1}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	cr := &ChainResult{Theorem: "f=0 on the hexagon", F: 0, G: tri}
	p := tc.plan(sim.BoolInput(false), sim.BoolInput(true), 6, baChecks, [3]string{})
	if _, err := cr.run(p, uniformBuilders(tri, byzantine.NewMajority(2))); err == nil {
		t.Error("a link with a faulty node was accepted at f=0")
	}
	if len(cr.Links) != 0 {
		t.Errorf("the over-f link was appended: %d links", len(cr.Links))
	}
}
