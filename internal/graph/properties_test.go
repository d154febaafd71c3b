package graph

import (
	"strings"
	"testing"
)

func TestDiameter(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"K5", Complete(5), 1},
		{"ring6", Ring(6), 3},
		{"ring7", Ring(7), 3},
		{"line5", Line(5), 4},
		{"star7", Star(7), 2},
		{"petersen", Petersen(), 2},
		{"hypercube4", Hypercube(4), 4},
		{"K33", CompleteBipartite(3, 3), 2},
		{"K1", Complete(1), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.Diameter(); got != tt.want {
				t.Errorf("Diameter() = %d, want %d", got, tt.want)
			}
		})
	}
	disconnected := MustNew("a", "b")
	if got := disconnected.Diameter(); got != -1 {
		t.Errorf("disconnected diameter = %d, want -1", got)
	}
}

func TestPetersenProperties(t *testing.T) {
	g := Petersen()
	if g.N() != 10 || g.NumEdges() != 15 {
		t.Fatalf("shape: %d nodes %d edges", g.N(), g.NumEdges())
	}
	if !g.IsRegular() || g.Degree(0) != 3 {
		t.Error("Petersen graph not 3-regular")
	}
	if got := g.VertexConnectivity(); got != 3 {
		t.Errorf("connectivity = %d, want 3", got)
	}
	if !g.IsAdequate(1) {
		t.Error("Petersen graph (n=10, conn=3) should tolerate f=1")
	}
}

func TestCompleteBipartiteConnectivity(t *testing.T) {
	for _, c := range []struct{ m, n, want int }{{3, 3, 3}, {2, 5, 2}, {4, 4, 4}} {
		g := CompleteBipartite(c.m, c.n)
		if got := g.VertexConnectivity(); got != c.want {
			t.Errorf("K_{%d,%d} connectivity = %d, want %d", c.m, c.n, got, c.want)
		}
	}
}

func TestIsRegular(t *testing.T) {
	if Star(5).IsRegular() {
		t.Error("star reported regular")
	}
	if !Ring(6).IsRegular() {
		t.Error("ring reported irregular")
	}
}

func TestDOTOutput(t *testing.T) {
	c := HexCover()
	cdot := c.DOT("hex")
	if !strings.Contains(cdot, "r0→a") {
		t.Errorf("cover DOT missing fiber label:\n%s", cdot)
	}
	// Each undirected edge of S appears exactly once.
	if strings.Count(cdot, "--") != c.S.NumEdges() {
		t.Errorf("cover DOT has %d edges, want %d", strings.Count(cdot, "--"), c.S.NumEdges())
	}
}
