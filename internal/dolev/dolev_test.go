package dolev

import (
	"testing"

	"flm/internal/adversary"
	"flm/internal/byzantine"
	"flm/internal/graph"
	"flm/internal/sim"
)

func TestNewRouterRejectsLowConnectivity(t *testing.T) {
	if _, err := NewRouter(graph.Ring(6), 1); err == nil {
		t.Error("ring (connectivity 2) accepted for f=1")
	}
	if _, err := NewRouter(graph.Wheel(7), 2); err == nil {
		t.Error("wheel (connectivity 3) accepted for f=2")
	}
}

func TestRouterPathsAreDisjointAndComplete(t *testing.T) {
	g := graph.Wheel(7)
	r, err := NewRouter(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPaths() != 3 {
		t.Fatalf("NumPaths = %d", r.NumPaths())
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			used := map[int]bool{}
			for idx := 0; idx < r.NumPaths(); idx++ {
				p := r.Path(u, v, idx)
				if p == nil {
					t.Fatalf("missing path %d for %d->%d", idx, u, v)
				}
				if p[0] != u || p[len(p)-1] != v {
					t.Errorf("path %v does not join %d->%d", p, u, v)
				}
				for i := 0; i+1 < len(p); i++ {
					if !g.HasEdge(p[i], p[i+1]) {
						t.Errorf("path %v uses non-edge", p)
					}
				}
				for _, mid := range p[1 : len(p)-1] {
					if used[mid] {
						t.Errorf("paths %d->%d share internal node %d", u, v, mid)
					}
					used[mid] = true
				}
			}
		}
	}
	if r.Path(0, 1, 99) != nil {
		t.Error("out-of-range path index returned a path")
	}
}

func TestReversePathsMirror(t *testing.T) {
	g := graph.Circulant(8, 1, 2)
	r, err := NewRouter(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < r.NumPaths(); idx++ {
		fwd, rev := r.Path(0, 5, idx), r.Path(5, 0, idx)
		if len(fwd) != len(rev) {
			t.Fatalf("path %d lengths differ", idx)
		}
		for i := range fwd {
			if fwd[i] != rev[len(rev)-1-i] {
				t.Errorf("path %d not mirrored: %v vs %v", idx, fwd, rev)
			}
		}
	}
}

func overlayTrial(t *testing.T, g *graph.Graph, f, bits int, badNode string, corrupt func(sim.Builder) sim.Builder) sim.Report {
	t.Helper()
	r, err := NewRouter(g, f)
	if err != nil {
		t.Fatal(err)
	}
	honest := Overlay(r, byzantine.NewEIG(f, g.Names()))
	inputs := make(map[string]sim.Input, g.N())
	for i, name := range g.Names() {
		inputs[name] = sim.BoolInput(bits&(1<<uint(i)) != 0)
	}
	trial := byzantine.Trial{
		G:      g,
		Inputs: inputs,
		Honest: honest,
		Rounds: r.Rounds(byzantine.EIGRounds(f)),
	}
	if badNode != "" {
		trial.Faulty = map[string]sim.Builder{badNode: corrupt(honest)}
	}
	_, _, rep, err := trial.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestOverlayEIGFaultFreeOnWheel(t *testing.T) {
	g := graph.Wheel(7) // connectivity 3 = 2f+1, n = 7 >= 3f+1
	for _, bits := range []int{0, 0x7f, 0x2a, 0x15, 0x63} {
		rep := overlayTrial(t, g, 1, bits, "", nil)
		if !rep.OK() {
			t.Errorf("bits=%x: %v", bits, rep.Err())
		}
	}
}

func TestOverlayEIGOneFaultOnWheel(t *testing.T) {
	g := graph.Wheel(7)
	for _, bits := range []int{0, 0x7f, 0x36} {
		for _, badNode := range []string{"w0", "w3"} { // hub and rim
			for _, strat := range adversary.Panel(19) {
				rep := overlayTrial(t, g, 1, bits, badNode, strat.Corrupt)
				if !rep.OK() {
					t.Errorf("bits=%x bad=%s strat=%s: %v", bits, badNode, strat.Name, rep.Err())
				}
			}
		}
	}
}

func TestOverlayEIGOnCirculant(t *testing.T) {
	// Circulant(7,{1,2}) has connectivity 4 >= 3 and n = 7 >= 4: adequate
	// for f=1 with margin.
	g := graph.Circulant(7, 1, 2)
	for _, strat := range adversary.Panel(23) {
		rep := overlayTrial(t, g, 1, 0x55, "c2", strat.Corrupt)
		if !rep.OK() {
			t.Errorf("strat=%s: %v", strat.Name, rep.Err())
		}
	}
}

func TestOverlayStretchMatchesLongestPath(t *testing.T) {
	g := graph.Wheel(7)
	r, err := NewRouter(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	maxLen := 0
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			for idx := 0; idx < r.NumPaths(); idx++ {
				if p := r.Path(u, v, idx); len(p)-1 > maxLen {
					maxLen = len(p) - 1
				}
			}
		}
	}
	if r.StretchFactor() != maxLen {
		t.Errorf("stretch %d, want %d", r.StretchFactor(), maxLen)
	}
}

func TestPieceCodecRejectsGarbage(t *testing.T) {
	g := graph.Complete(4)
	r, err := NewRouter(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"", "nonsense", "p0>p1>0,1,0", "p0>p1>0,1,0,ZZ", "zz>p1>0,1,0,ab",
		"p0>p1>x,1,0,ab", "p0>p1,1,0,ab", "p0>p1>0,x,0,ab", "p0>p1>0,1,x,ab",
	} {
		if _, ok := decodePiece(r, bad); ok {
			t.Errorf("garbage piece %q decoded", bad)
		}
	}
	good := piece{origin: 0, dest: 1, pathIdx: 0, hop: 1, innerRound: 2, payload: "ab"}
	decoded, ok := decodePiece(r, good.encode(r))
	if !ok || decoded != good {
		t.Errorf("round trip failed: %+v vs %+v", decoded, good)
	}
}

// A piece forged with a wrong claimed sender position must be dropped: a
// faulty node can corrupt only paths through itself.
func TestIngestRejectsWrongHop(t *testing.T) {
	g := graph.Complete(4)
	r, err := NewRouter(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	builder := Overlay(r, byzantine.NewEIG(1, g.Names()))
	d := builder("p2", []string{"p0", "p1", "p3"}, "1").(*overlayDevice)
	// A direct path p0->p2 has the form [p0 p2]; a piece claiming hop 1
	// from the wrong sender p1 must be rejected.
	path := r.Path(0, 2, 0)
	if len(path) != 2 {
		t.Fatalf("expected direct path, got %v", path)
	}
	forged := piece{origin: 0, dest: 2, pathIdx: 0, hop: 1, innerRound: 0, payload: "ab"}
	// p2's ports are p0, p1, p3.
	d.ingest(sim.Inbox{sim.None, sim.Payload(forged.encode(r)), sim.None})
	if len(d.arrived) != 0 {
		t.Error("forged piece accepted from wrong sender")
	}
	// The same piece from the true sender is accepted.
	d.ingest(sim.Inbox{sim.Payload(forged.encode(r)), sim.None, sim.None})
	if len(d.arrived) != 1 {
		t.Error("authentic piece rejected")
	}
}
