package graph

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestHexCoverIsValid(t *testing.T) {
	c := HexCover()
	if err := c.Verify(); err != nil {
		t.Fatalf("hex cover invalid: %v", err)
	}
	if c.S.N() != 6 || c.G.N() != 3 {
		t.Fatalf("hex cover shape: S=%d G=%d", c.S.N(), c.G.N())
	}
	// Fibers have size 2.
	for g := 0; g < 3; g++ {
		if fiber := c.Fiber(g); len(fiber) != 2 {
			t.Errorf("fiber of %s = %v, want size 2", c.G.Name(g), fiber)
		}
	}
}

func TestRingCoverTriangle(t *testing.T) {
	for _, m := range []int{3, 6, 12, 24, 48} {
		c := RingCoverTriangle(m)
		if err := c.Verify(); err != nil {
			t.Errorf("m=%d: %v", m, err)
		}
		if c.S.N() != m {
			t.Errorf("m=%d: S has %d nodes", m, c.S.N())
		}
	}
}

func TestRingCoverTriangleRejectsBadSize(t *testing.T) {
	for _, m := range []int{0, 2, 4, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("m=%d accepted", m)
				}
			}()
			RingCoverTriangle(m)
		}()
	}
}

func TestDiamondCoverIsEightCycle(t *testing.T) {
	c := DiamondCover()
	if err := c.Verify(); err != nil {
		t.Fatalf("diamond cover invalid: %v", err)
	}
	if c.S.N() != 8 || c.S.NumEdges() != 8 {
		t.Fatalf("S shape: %d nodes %d edges", c.S.N(), c.S.NumEdges())
	}
	for u := 0; u < c.S.N(); u++ {
		if c.S.Degree(u) != 2 {
			t.Fatalf("S node %s has degree %d, want 2 (not a cycle)", c.S.Name(u), c.S.Degree(u))
		}
	}
	if !c.S.IsConnected() {
		t.Fatal("S is two 4-cycles, not one 8-cycle")
	}
}

// partitionCover is the two-copy cover of a block partition with the
// a-c edges crossed: Section 3.1's hexagon of blocks.
func partitionCover(t *testing.T, g *Graph, f int, a, b, c []int) *Cover {
	t.Helper()
	block, err := Partition(g, f, a, b, c)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	return CyclicCover(g, func(u, v int) bool { return block[u] == 0 && block[v] == 2 }, 2)
}

func TestPartitionCoverSingletons(t *testing.T) {
	g := Triangle()
	c := partitionCover(t, g, 1, []int{0}, []int{1}, []int{2})
	if err := c.Verify(); err != nil {
		t.Fatalf("cover invalid: %v", err)
	}
	// Must be the hexagon: 6 nodes, all degree 2, connected.
	if c.S.N() != 6 || !c.S.IsConnected() {
		t.Fatalf("expected hexagon, got:\n%s", c.S)
	}
	for u := 0; u < 6; u++ {
		if c.S.Degree(u) != 2 {
			t.Errorf("node %s degree %d", c.S.Name(u), c.S.Degree(u))
		}
	}
}

func TestPartitionCoverGeneral(t *testing.T) {
	// K6 with f=2: blocks of size 2.
	g := Complete(6)
	c := partitionCover(t, g, 2, []int{0, 1}, []int{2, 3}, []int{4, 5})
	if err := c.Verify(); err != nil {
		t.Fatalf("cover invalid: %v", err)
	}
	if c.S.N() != 12 {
		t.Fatalf("S has %d nodes, want 12", c.S.N())
	}
	// Degree preserved: every S-node must have degree 5.
	for u := 0; u < c.S.N(); u++ {
		if c.S.Degree(u) != 5 {
			t.Errorf("node %s degree %d, want 5", c.S.Name(u), c.S.Degree(u))
		}
	}
	// The A-C edges must be crossed: a p0.0 neighbor mapping to p4 must
	// be p4.1, not p4.0.
	u := c.S.MustIndex("p0.0")
	for _, v := range c.S.Neighbors(u) {
		if c.G.Name(c.Phi[v]) == "p4" && c.S.Name(v) != "p4.1" {
			t.Errorf("a-c edge not crossed: p0.0 adjacent to %s", c.S.Name(v))
		}
	}
}

// TestPartition: the partition rule of the node-bound proofs rejects
// an adequate graph and every block that is empty, larger than f,
// overlapping, out of range or short of covering G.
func TestPartition(t *testing.T) {
	k4, k5 := Complete(4), Complete(5)
	block, err := Partition(k5, 2, []int{0, 1}, []int{2, 3}, []int{4})
	if err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	if want := []int{0, 0, 1, 1, 2}; !reflect.DeepEqual(block, want) {
		t.Errorf("blocks %v, want %v", block, want)
	}
	for _, tc := range []struct {
		name    string
		g       *Graph
		f       int
		a, b, c []int
	}{
		{"adequate graph", k4, 1, []int{0}, []int{1}, []int{2, 3}},
		{"incomplete partition", k4, 2, []int{0}, []int{1}, []int{2}},
		{"overlapping partition", k4, 2, []int{0, 1}, []int{1, 2}, []int{3}},
		{"empty block", k4, 3, nil, []int{0, 1, 2}, []int{3}},
		{"out-of-range node", k4, 3, []int{9}, []int{0, 1, 2}, []int{3}},
		{"negative node", k4, 3, []int{-1}, []int{0, 1, 2}, []int{3}},
		{"block larger than f", k5, 2, []int{0, 1, 2}, []int{3}, []int{4}},
	} {
		if _, err := Partition(tc.g, tc.f, tc.a, tc.b, tc.c); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestCutCoverValidation(t *testing.T) {
	g := Diamond()
	// b and d really separate a from c.
	if _, err := CutCover(g, []int{1}, []int{3}, 0, 2); err != nil {
		t.Errorf("valid cut rejected: %v", err)
	}
	// {b} alone does not separate a from c.
	if _, err := CutCover(g, []int{1}, nil, 0, 2); err == nil {
		t.Error("non-separating cut accepted")
	}
	// Overlapping halves.
	if _, err := CutCover(g, []int{1}, []int{1}, 0, 2); err == nil {
		t.Error("overlapping cut halves accepted")
	}
	// Separated node inside the cut.
	if _, err := CutCover(g, []int{0}, []int{2}, 0, 1); err == nil {
		t.Error("endpoint inside cut accepted")
	}
}

func TestCutSets(t *testing.T) {
	// On the diamond, the cut {b} ∪ {d} leaves a on u's side and c on
	// the other.
	a, c := CutSets(Diamond(), []int{1}, []int{3}, 0)
	if !reflect.DeepEqual(a, []int{0}) || !reflect.DeepEqual(c, []int{2}) {
		t.Errorf("diamond: a = %v, c = %v, want [0] and [2]", a, c)
	}
	// Circulant(10, 1, 2) cut at {1,9} ∪ {2,8}: 0 is alone on its side,
	// and 3..7 form the other.
	a, c = CutSets(Circulant(10, 1, 2), []int{1, 9}, []int{2, 8}, 0)
	if !reflect.DeepEqual(a, []int{0}) || !reflect.DeepEqual(c, []int{3, 4, 5, 6, 7}) {
		t.Errorf("circulant: a = %v, c = %v, want [0] and [3 4 5 6 7]", a, c)
	}
}

func TestCutCoverOnLargerGraph(t *testing.T) {
	// Circulant(10, 1, 2) has connectivity 4; the cut {1,2,8,9}
	// separates node 0 from node 5. Split it as b={1,9}, d={2,8}.
	g := Circulant(10, 1, 2)
	c, err := CutCover(g, []int{1, 9}, []int{2, 8}, 0, 5)
	if err != nil {
		t.Fatalf("CutCover: %v", err)
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("cover invalid: %v", err)
	}
	if c.S.N() != 20 {
		t.Fatalf("S has %d nodes", c.S.N())
	}
}

func TestEdgePreimage(t *testing.T) {
	c := HexCover()
	// S-node 0 maps to a; the G-edge b->a must have a unique preimage
	// neighbor of node 0 mapping to b.
	a, b := c.G.MustIndex("a"), c.G.MustIndex("b")
	for _, s := range c.Fiber(a) {
		pre := c.EdgePreimage(s, b)
		if c.Phi[pre] != b {
			t.Errorf("preimage of b->a at %s maps to %s", c.S.Name(s), c.G.Name(c.Phi[pre]))
		}
		if !c.S.HasEdge(pre, s) {
			t.Errorf("preimage %s not adjacent to %s", c.S.Name(pre), c.S.Name(s))
		}
	}
}

func TestInducedIsomorphic(t *testing.T) {
	c := HexCover()
	// Adjacent pair (1,2) = (b-copy, c-copy): isomorphic to {b,c} in G.
	if err := c.InducedIsomorphic([]int{1, 2}); err != nil {
		t.Errorf("adjacent pair rejected: %v", err)
	}
	// Antipodal pair (0,3) both map to a: not injective.
	if err := c.InducedIsomorphic([]int{0, 3}); err == nil {
		t.Error("non-injective subset accepted")
	}
	// Pair (0,2): a-copy and c-copy NOT adjacent in the hexagon but
	// adjacent in the triangle — not an isomorphism.
	if err := c.InducedIsomorphic([]int{0, 2}); err == nil {
		t.Error("non-isomorphic subset accepted")
	}
	// Triple (0,1,2) = consecutive a,b,c: S-edges a-b, b-c but not a-c;
	// G has a-c, so not isomorphic.
	if err := c.InducedIsomorphic([]int{0, 1, 2}); err == nil {
		t.Error("broken triple accepted")
	}
}

func TestVerifyCatchesBrokenCover(t *testing.T) {
	// Map a 4-ring onto the triangle: 0,1,2,3 -> a,b,c,a. Node 3's
	// neighbors are 2 (c) and 0 (a), but a's neighbors are b and c.
	c := &Cover{S: Ring(4), G: Triangle(), Phi: []int{0, 1, 2, 0}}
	if err := c.Verify(); err == nil {
		t.Error("invalid cover passed verification")
	}
	// Phi length mismatch.
	c2 := &Cover{S: Ring(6), G: Triangle(), Phi: []int{0, 1, 2}}
	if err := c2.Verify(); err == nil {
		t.Error("short phi passed verification")
	}
	// Out-of-range image.
	c3 := &Cover{S: Triangle(), G: Triangle(), Phi: []int{0, 1, 7}}
	if err := c3.Verify(); err == nil {
		t.Error("out-of-range phi passed verification")
	}
}

func TestCyclicCoverValid(t *testing.T) {
	g := Diamond()
	for _, m := range []int{2, 3, 4, 8} {
		c := CyclicCover(g, func(u, v int) bool { return g.Name(u) == "a" && g.Name(v) == "d" }, m)
		if err := c.Verify(); err != nil {
			t.Errorf("m=%d: %v", m, err)
		}
		if c.S.N() != 4*m {
			t.Errorf("m=%d: S has %d nodes", m, c.S.N())
		}
		// The diamond cyclic cut cover is the 4m-cycle.
		for u := 0; u < c.S.N(); u++ {
			if c.S.Degree(u) != 2 {
				t.Fatalf("m=%d: node %s degree %d", m, c.S.Name(u), c.S.Degree(u))
			}
		}
		if !c.S.IsConnected() {
			t.Errorf("m=%d: S disconnected", m)
		}
	}
}

func TestCyclicCoverMatchesRingCover(t *testing.T) {
	// The cyclic cover of the triangle crossing the a-c edge is a
	// 3m-cycle covering the triangle, structurally the RingCoverTriangle.
	tri := Triangle()
	c := CyclicCover(tri, func(u, v int) bool {
		return tri.Name(u) == "a" && tri.Name(v) == "c"
	}, 4)
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if c.S.N() != 12 || !c.S.IsConnected() {
		t.Fatalf("S shape: %d nodes connected=%v", c.S.N(), c.S.IsConnected())
	}
	for u := 0; u < c.S.N(); u++ {
		if c.S.Degree(u) != 2 {
			t.Fatalf("node %s degree %d", c.S.Name(u), c.S.Degree(u))
		}
	}
}

func TestCyclicCoverRejectsTooFewCopies(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("m=1 accepted")
		}
	}()
	CyclicCover(Triangle(), func(u, v int) bool { return false }, 1)
}

func TestCyclicCutCover(t *testing.T) {
	g := Diamond()
	c, err := CyclicCutCover(g, []int{1}, []int{3}, 0, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if c.S.N() != 24 {
		t.Errorf("S has %d nodes, want 24", c.S.N())
	}
	// Validation is shared with CutCover.
	if _, err := CyclicCutCover(g, []int{1}, nil, 0, 2, 6); err == nil {
		t.Error("non-separating cut accepted")
	}
}

// Property: the two-copy CyclicCover, the double covering of both
// general lower bounds in the paper, always yields a valid covering,
// whatever the crossing predicate.
func TestTwoCopyCoverAlwaysValid(t *testing.T) {
	prop := func(seed int64, mask uint16) bool {
		g := GNP(6, 0.5, seed)
		cover := CyclicCover(g, func(u, v int) bool {
			return mask&(1<<uint((u*6+v)%16)) != 0
		}, 2)
		return cover.Verify() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: in any valid ring cover of the triangle, every fiber has the
// same size m/3.
func TestRingCoverFiberSizes(t *testing.T) {
	for _, m := range []int{6, 12, 24} {
		c := RingCoverTriangle(m)
		for g := 0; g < 3; g++ {
			if got := len(c.Fiber(g)); got != m/3 {
				t.Errorf("m=%d fiber(%d) size %d, want %d", m, g, got, m/3)
			}
		}
	}
}
