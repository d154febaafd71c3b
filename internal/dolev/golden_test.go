package dolev

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"flm/internal/adversary"
	"flm/internal/approx"
	"flm/internal/byzantine"
	"flm/internal/graph"
	"flm/internal/sim"
)

var updateOverlay = flag.Bool("update", false, "rewrite testdata/overlay.golden")

const overlayGolden = "testdata/overlay.golden"

// overlayCase is one protocol over the router on one sparse graph: the
// input patterns, faulty sets and panel it is run under, and the check
// that judges each trial.
type overlayCase struct {
	name     string
	g        *graph.Graph
	f        int
	inner    func(names []string) sim.Builder
	rounds   func(r *Router) int
	inputs   []map[string]sim.Input
	inputTag []string // one label per input pattern
	faulty   [][]string
	panel    int64
	check    func(run *sim.Run, correct []string) error
}

// boolPatterns turns bit patterns into boolean input maps over g, with a
// tag per pattern for the golden file.
func boolPatterns(g *graph.Graph, bits ...int) ([]map[string]sim.Input, []string) {
	var ins []map[string]sim.Input
	var tags []string
	for _, b := range bits {
		in := make(map[string]sim.Input, g.N())
		for i, name := range g.Names() {
			in[name] = sim.BoolInput(b&(1<<uint(i)) != 0)
		}
		ins = append(ins, in)
		tags = append(tags, fmt.Sprintf("bits=%#x", b))
	}
	return ins, tags
}

// goldenOverlay lists EIG over the router on the sparse graphs of E10
// and E17, and DLPSW over the router on Wheel(7), E11's composition.
func goldenOverlay() []overlayCase {
	eig := func(f int) func([]string) sim.Builder {
		return func(names []string) sim.Builder { return byzantine.NewEIG(f, names) }
	}
	eigRounds := func(f int) func(*Router) int {
		return func(r *Router) int { return r.Rounds(byzantine.EIGRounds(f)) }
	}
	checkBA := func(run *sim.Run, correct []string) error { return byzantine.CheckBA(run, correct).Err() }
	var cs []overlayCase
	for _, c := range []struct {
		name string
		g    *graph.Graph
		f    int
	}{
		{"Wheel(7)", graph.Wheel(7), 1},
		{"Circulant(7;1,2)", graph.Circulant(7, 1, 2), 1},
		{"Hypercube(3)", graph.Hypercube(3), 1},
		{"Petersen", graph.Petersen(), 1},
		{"K3,3", graph.CompleteBipartite(3, 3), 1},
		{"Circulant(9;1,2,3)", graph.Circulant(9, 1, 2, 3), 2},
	} {
		n := c.g.N()
		bits := []int{0, 1<<uint(n) - 1, 0x5a5a5a & (1<<uint(n) - 1)}
		faulty := [][]string{{c.g.Name(0)}, {c.g.Name(n / 2)}}
		if c.f == 2 {
			faulty = append(faulty, []string{c.g.Name(1), c.g.Name(n/2 + 1)})
		}
		ins, tags := boolPatterns(c.g, bits...)
		cs = append(cs, overlayCase{
			name: "EIG/" + c.name, g: c.g, f: c.f,
			inner: eig(c.f), rounds: eigRounds(c.f),
			inputs: ins, inputTag: tags, faulty: faulty, panel: 17, check: checkBA,
		})
	}
	const iterations = 6
	w := graph.Wheel(7)
	reals := make(map[string]sim.Input, w.N())
	for i, name := range w.Names() {
		reals[name] = sim.RealInput(float64(i) / 6)
	}
	cs = append(cs, overlayCase{
		name: "DLPSW/Wheel(7)", g: w, f: 1,
		inner:  func(names []string) sim.Builder { return approx.NewDLPSW(1, names, iterations) },
		rounds: func(r *Router) int { return r.Rounds(approx.DLPSWRounds(iterations)) },
		inputs: []map[string]sim.Input{reals}, inputTag: []string{"i/6"},
		faulty: [][]string{{"w0"}, {"w4"}, {"w5"}},
		panel:  51,
		check: func(run *sim.Run, correct []string) error {
			return approx.CheckEDG(run, correct, 0.05, 0).Err()
		},
	})
	return cs
}

// snapshotDigest hashes one node's snapshot sequence, each snapshot
// behind its length so no two sequences share a digest by concatenation.
// The first 64 bits of the sha256 tell sequences apart and keep the
// golden file small.
func snapshotDigest(seq []string) string {
	h := sha256.New()
	for _, s := range seq {
		h.Write([]byte(strconv.Itoa(len(s))))
		h.Write([]byte{':'})
		h.Write([]byte(s))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// renderOverlay runs every trial of c with full recording and writes its
// verdict, then each node's decision and snapshot digest. Edge traffic is
// left out: it is the wire format, which the golden does not pin.
func renderOverlay(b *strings.Builder, c overlayCase) error {
	r, err := NewRouter(c.g, c.f)
	if err != nil {
		return err
	}
	honest := Overlay(r, c.inner(c.g.Names()))
	panel := adversary.Panel(c.panel)
	for i, inputs := range c.inputs {
		for _, bad := range c.faulty {
			for _, strat := range panel {
				faulty := make(map[string]sim.Builder, len(bad))
				for _, name := range bad {
					faulty[name] = strat.Corrupt(honest)
				}
				trial := byzantine.Trial{G: c.g, Inputs: inputs, Honest: honest, Faulty: faulty, Rounds: c.rounds(r)}
				run, correct, _, err := trial.Run()
				if err != nil {
					return fmt.Errorf("%s %s bad=%v %s: %w", c.name, c.inputTag[i], bad, strat.Name, err)
				}
				verdict := "ok"
				if err := c.check(run, correct); err != nil {
					verdict = err.Error()
				}
				fmt.Fprintf(b, "== %s %s bad=%s %s: %s\n", c.name, c.inputTag[i], strings.Join(bad, ","), strat.Name, verdict)
				for u, name := range c.g.Names() {
					d := run.Decisions[u]
					fmt.Fprintf(b, "%s %q@%d %s\n", name, d.Value, d.Round, snapshotDigest(run.Snapshots[u]))
				}
			}
		}
	}
	return nil
}

// TestOverlayGolden pins, for every overlay trial above, the verdict and
// each node's decision and snapshot sequence, so a change to the wire or
// the router that alters what a device sees or decides shows up trial
// by trial. Run with -update to rewrite the golden file.
func TestOverlayGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenOverlay() {
		if err := renderOverlay(&b, c); err != nil {
			t.Fatal(err)
		}
	}
	got := b.String()
	if *updateOverlay {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(overlayGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(overlayGolden)
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
				t.Fatalf("overlay results differ from %s at line %d:\n got %q\nwant %q", overlayGolden, i+1, g, w)
			}
		}
	}
}
