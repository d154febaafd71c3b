package graph

import (
	"fmt"
	"strings"
)

// Diameter returns the greatest shortest-path distance between any two
// nodes, or -1 if the graph is disconnected.
func (g *Graph) Diameter() int {
	diameter := 0
	for s := 0; s < g.N(); s++ {
		dist := g.bfsDistances(s)
		for _, d := range dist {
			if d < 0 {
				return -1
			}
			if d > diameter {
				diameter = d
			}
		}
	}
	return diameter
}

func (g *Graph) bfsDistances(s int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// IsRegular reports whether every node has the same degree.
func (g *Graph) IsRegular() bool {
	if g.N() == 0 {
		return true
	}
	d := g.Degree(0)
	for u := 1; u < g.N(); u++ {
		if g.Degree(u) != d {
			return false
		}
	}
	return true
}

// DOT renders the covering in DOT format with fibers grouped by color
// index (one color class per G-node).
func (c *Cover) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n", name)
	for s := 0; s < c.S.N(); s++ {
		fmt.Fprintf(&b, "  %q [label=%q, colorscheme=set19, color=%d];\n",
			c.S.Name(s), c.S.Name(s)+"→"+c.G.Name(c.Phi[s]), c.Phi[s]%9+1)
	}
	for u := 0; u < c.S.N(); u++ {
		for _, v := range c.S.Neighbors(u) {
			if u < v {
				fmt.Fprintf(&b, "  %q -- %q;\n", c.S.Name(u), c.S.Name(v))
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
