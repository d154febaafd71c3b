package graph

import (
	"fmt"
	"sort"
)

// Cover is a graph covering: a graph S together with a map Phi from
// nodes(S) onto nodes(G) that preserves neighborhoods — Phi restricted to
// the neighbors of any S-node is a bijection onto the neighbors of its
// image. Under such a map S "looks locally like" G, which is exactly what
// the FLM85 proofs exploit: devices installed on S per Phi cannot tell the
// two systems apart.
type Cover struct {
	S   *Graph
	G   *Graph
	Phi []int // Phi[s] = image of S-node s in G
}

// Verify checks the covering property and returns a descriptive error on
// the first violation.
func (c *Cover) Verify() error {
	if len(c.Phi) != c.S.N() {
		return fmt.Errorf("cover: phi has %d entries for %d S-nodes", len(c.Phi), c.S.N())
	}
	for s := 0; s < c.S.N(); s++ {
		img := c.Phi[s]
		if img < 0 || img >= c.G.N() {
			return fmt.Errorf("cover: phi(%s) = %d out of range", c.S.Name(s), img)
		}
		want := c.G.Neighbors(img)
		got := make([]int, 0, c.S.Degree(s))
		for _, nb := range c.S.Neighbors(s) {
			got = append(got, c.Phi[nb])
		}
		sort.Ints(got)
		if len(got) != len(want) {
			return fmt.Errorf("cover: %s has degree %d but phi image %s has degree %d",
				c.S.Name(s), len(got), c.G.Name(img), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("cover: neighbors of %s map to %v, want neighbors of %s = %v",
					c.S.Name(s), got, c.G.Name(img), want)
			}
		}
		// Bijectivity: sorted equality plus no duplicates.
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				return fmt.Errorf("cover: two neighbors of %s map to the same node %s",
					c.S.Name(s), c.G.Name(got[i]))
			}
		}
	}
	return nil
}

// EdgePreimage returns, for the S-node s and a G-edge (gFrom -> phi(s)),
// the unique S-node whose edge into s maps onto it. It panics if the
// covering property does not supply one; call Verify first.
func (c *Cover) EdgePreimage(s, gFrom int) int {
	for _, nb := range c.S.Neighbors(s) {
		if c.Phi[nb] == gFrom {
			return nb
		}
	}
	panic(fmt.Sprintf("cover: no neighbor of %s maps to %s", c.S.Name(s), c.G.Name(gFrom)))
}

// Fiber returns the S-nodes mapping onto G-node g, sorted.
func (c *Cover) Fiber(g int) []int {
	var fiber []int
	for s, img := range c.Phi {
		if img == g {
			fiber = append(fiber, s)
		}
	}
	return fiber
}

// InducedIsomorphic reports whether Phi restricted to the S-node subset U
// is injective and an isomorphism between the induced subgraphs S_U and
// G_Phi(U). This is the precondition for splicing the scenario of U into a
// behavior of G (the paper's Locality-axiom step).
func (c *Cover) InducedIsomorphic(u []int) error {
	seen := make(map[int]int, len(u))
	for _, s := range u {
		if prev, dup := seen[c.Phi[s]]; dup {
			return fmt.Errorf("cover: %s and %s both map to %s",
				c.S.Name(prev), c.S.Name(s), c.G.Name(c.Phi[s]))
		}
		seen[c.Phi[s]] = s
	}
	for i, s1 := range u {
		for _, s2 := range u[i+1:] {
			sEdge := c.S.HasEdge(s1, s2)
			gEdge := c.G.HasEdge(c.Phi[s1], c.Phi[s2])
			if sEdge != gEdge {
				return fmt.Errorf("cover: edge {%s,%s}=%v but image edge {%s,%s}=%v",
					c.S.Name(s1), c.S.Name(s2), sEdge,
					c.G.Name(c.Phi[s1]), c.G.Name(c.Phi[s2]), gEdge)
			}
		}
	}
	return nil
}

// RingCoverTriangle returns the m-node ring covering of the triangle
// graph used in Sections 4-7 of the paper: ring node i maps to triangle
// node i mod 3. m must be a positive multiple of 3 (m >= 3); the paper
// uses m = 4k (weak agreement, firing squad) and m = k+2 (approximate
// agreement, clock synchronization), both chosen divisible by 3.
func RingCoverTriangle(m int) *Cover {
	if m < 3 || m%3 != 0 {
		panic(fmt.Sprintf("graph: ring cover of triangle needs a multiple of 3, got %d", m))
	}
	var s *Graph
	if m == 3 {
		// The 3-ring *is* the triangle (trivial cover).
		s = Triangle()
	} else {
		s = Ring(m)
	}
	phi := make([]int, m)
	for i := range phi {
		phi[i] = i % 3
	}
	return &Cover{S: s, G: Triangle(), Phi: phi}
}

// HexCover returns the six-node covering of the triangle from Section 3.1
// (nodes u,v,w,x,y,z arranged in a ring, mapping a,b,c,a,b,c).
func HexCover() *Cover { return RingCoverTriangle(6) }

// CyclicCover builds the m-copy cyclic covering of g: m copies of g
// arranged in a ring, where each edge {u,v} with cross(u,v) true becomes
// the family of edges u.i -- v.(i+1 mod m), and every other edge stays
// within its copy. The result is always a valid covering with Phi
// collapsing the copies: every S-node's neighbors map bijectively onto
// its image's neighbors, with the crossed ones found in the adjacent
// copies. m = 2 gives the paper's double covers (Section 3); larger m
// gives the ring-of-copies coverings that extend the weak agreement and
// firing squad arguments to the connectivity bound. S-node names are the
// G-names suffixed with ".0" .. ".(m-1)".
//
// The crossing predicate is directional for m > 2: cross(u,v) sends u's
// edge forward (to copy i+1) and v's backward. With m = 2 forward and
// backward coincide.
func CyclicCover(g *Graph, cross func(u, v int) bool, m int) *Cover {
	if m < 2 {
		panic(fmt.Sprintf("graph: cyclic cover needs at least 2 copies, got %d", m))
	}
	n := g.N()
	names := make([]string, 0, m*n)
	for copyID := 0; copyID < m; copyID++ {
		for u := 0; u < n; u++ {
			names = append(names, fmt.Sprintf("%s.%d", g.Name(u), copyID))
		}
	}
	s := MustNew(names...)
	phi := make([]int, m*n)
	for i := range phi {
		phi[i] = i % n
	}
	at := func(u, copyID int) int { return ((copyID%m)+m)%m*n + u }
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if v < u {
				continue
			}
			crossed := cross(u, v)
			crossedRev := cross(v, u)
			for c := 0; c < m; c++ {
				switch {
				case crossed:
					s.MustAddEdge(at(u, c), at(v, c+1))
				case crossedRev:
					s.MustAddEdge(at(v, c), at(u, c+1))
				default:
					s.MustAddEdge(at(u, c), at(v, c))
				}
			}
		}
	}
	return &Cover{S: s, G: g, Phi: phi}
}

// Partition checks the block partition of the node-bound proofs
// (Sections 3.1 and 4-7): g has n <= 3f nodes, and the blocks a, b, c
// are non-empty, hold at most f nodes each, are disjoint and in range,
// and together cover g. It returns each node's block: 0 for a, 1 for b,
// 2 for c. Crossing the edges between two blocks in a cyclic cover
// (CyclicCover) gives the paper's hexagon, and ring, of blocks.
func Partition(g *Graph, f int, a, b, c []int) ([]int, error) {
	if g.N() > 3*f {
		return nil, fmt.Errorf("graph: %d nodes > 3f = %d; not inadequate by node count", g.N(), 3*f)
	}
	block := make([]int, g.N())
	for i := range block {
		block[i] = -1
	}
	for id, nodes := range [][]int{a, b, c} {
		if len(nodes) == 0 || len(nodes) > f {
			return nil, fmt.Errorf("graph: partition block %c has %d nodes, want 1 to f=%d", 'a'+id, len(nodes), f)
		}
		for _, u := range nodes {
			if u < 0 || u >= g.N() {
				return nil, fmt.Errorf("graph: partition node %d out of range", u)
			}
			if block[u] != -1 {
				return nil, fmt.Errorf("graph: node %s in two partition blocks", g.Name(u))
			}
			block[u] = id
		}
	}
	for u, id := range block {
		if id == -1 {
			return nil, fmt.Errorf("graph: node %s not covered by the partition", g.Name(u))
		}
	}
	return block, nil
}

// CutSets returns the two sides of the cut b ∪ d that the connectivity
// proofs use: the a-set, the component of u once the cut is removed, and
// the c-set, every other node outside the cut. Both are sorted.
func CutSets(g *Graph, b, d []int, u int) (a, c []int) {
	removed := append(append([]int(nil), b...), d...)
	a = g.ComponentWithout(removed, u)
	inAOrCut := make([]bool, g.N())
	for _, x := range a {
		inAOrCut[x] = true
	}
	for _, x := range removed {
		inAOrCut[x] = true
	}
	for x, in := range inAOrCut {
		if !in {
			c = append(c, x)
		}
	}
	return a, c
}

// CutCover builds the covering for the general connectivity bound
// (Section 3.2): b and d are disjoint node sets (each of size <= f in the
// proof) whose removal disconnects u from v; the edges between the
// component of u in G-(b∪d) (the "a" set) and the d set are crossed
// between the two copies, generalizing the paper's eight-node ring.
func CutCover(g *Graph, b, d []int, u, v int) (*Cover, error) {
	return CyclicCutCover(g, b, d, u, v, 2)
}

// CyclicCutCover builds the m-copy ring-of-copies covering for the
// connectivity bounds of the timed problems (weak agreement and the
// firing squad, Section 4-5 "the connectivity bound follows as for
// Byzantine agreement"): like CutCover, but with m copies arranged
// cyclically, so the chain of spliced scenarios can be long enough for
// the Bounded-Delay argument. Removing the b- and d-copies partitions the
// ring into 2m arcs whose middles are many copy-crossings away from
// opposite inputs.
func CyclicCutCover(g *Graph, b, d []int, u, v, m int) (*Cover, error) {
	inA, _, err := validateCut(g, b, d, u, v)
	if err != nil {
		return nil, err
	}
	inD := make(map[int]bool, len(d))
	for _, x := range d {
		inD[x] = true
	}
	cover := CyclicCover(g, func(x, y int) bool {
		return inA[x] && inD[y]
	}, m)
	return cover, nil
}

// validateCut checks the (b, d, u, v) cut arguments shared by CutCover
// and CyclicCutCover, returning membership maps for the component of u
// (the "a" set) and the removed set.
func validateCut(g *Graph, b, d []int, u, v int) (inA, removed map[int]bool, err error) {
	removed = make(map[int]bool, len(b)+len(d))
	for _, x := range b {
		if removed[x] {
			return nil, nil, fmt.Errorf("graph: duplicate cut node %s", g.Name(x))
		}
		removed[x] = true
	}
	for _, x := range d {
		if removed[x] {
			return nil, nil, fmt.Errorf("graph: cut sets b and d overlap at %s", g.Name(x))
		}
		removed[x] = true
	}
	if removed[u] || removed[v] {
		return nil, nil, fmt.Errorf("graph: separated nodes must lie outside the cut")
	}
	inA = make(map[int]bool, g.N())
	stack := []int{u}
	inA[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range g.Neighbors(x) {
			if !removed[y] && !inA[y] {
				inA[y] = true
				stack = append(stack, y)
			}
		}
	}
	if inA[v] {
		return nil, nil, fmt.Errorf("graph: removing b ∪ d does not separate %s from %s",
			g.Name(u), g.Name(v))
	}
	return inA, removed, nil
}

// DiamondCover returns the eight-node covering of the Diamond graph from
// Section 3.2 (two copies with the a-d edges crossed), whose S is the
// 8-cycle a.0-b.0-c.0-d.0-a.1-b.1-c.1-d.1.
func DiamondCover() *Cover {
	g := Diamond()
	cover, err := CutCover(g, []int{1}, []int{3}, 0, 2) // b={b}, d={d}, separate a from c
	if err != nil {
		panic(err)
	}
	return cover
}
