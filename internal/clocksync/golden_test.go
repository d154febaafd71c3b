package clocksync

import (
	"flag"
	"fmt"
	"math/big"
	"os"
	"strconv"
	"strings"
	"testing"

	"flm/internal/graph"
)

var updateTheorem8 = flag.Bool("update", false, "rewrite testdata/theorem8.golden")

const theorem8Golden = "testdata/theorem8.golden"

// theorem8Case is one call of an exported Theorem 8 driver: its results
// (one, or an EvalGrid's cells row by row) and a name for each.
type theorem8Case struct {
	names []string
	run   func() ([]*Result, error)
}

// uniform installs builder b at every node of g.
func uniform(g *graph.Graph, b Builder) map[string]Builder {
	m := make(map[string]Builder, g.N())
	for _, name := range g.Names() {
		m[name] = b
	}
	return m
}

// goldenTheorem8 lists the ring proofs of E7 and E8 and the general node
// and connectivity cases, against the devices the experiments use.
func goldenTheorem8() []theorem8Case {
	params := stdParams(1.5) // E7's parameters
	var cs []theorem8Case
	add := func(name string, run func() (*Result, error)) {
		cs = append(cs, theorem8Case{[]string{name}, func() ([]*Result, error) {
			r, err := run()
			return []*Result{r}, err
		}})
	}
	for _, d := range []struct {
		name string
		b    Builder
	}{
		{"trivial-lower", NewTrivialLower(params.L)},
		{"chase-max", NewChaseMax(params.L)},
		{"midpoint", NewMidpoint(params.L)},
		{"trimmed-f0", NewTrimmedMidpoint(params.L, 0)},
	} {
		add("Theorem8/"+d.name, func() (*Result, error) {
			return Theorem8(params, triBuilders(d.b))
		})
	}
	tPrime := big.NewRat(4, 1)
	cases := []GridCase{ // E8's grid
		{Name: "cor12", Params: Corollary12(3, 2, 1, 0, 1, 4, 1.5, tPrime)},
		{Name: "cor13", Params: Corollary13(3, 2, 1, 0, 1.5, tPrime)},
		{Name: "cor14", Params: Corollary14(2, 1, 1, 0, 1, tPrime)},
		{Name: "cor15", Params: Corollary15(4, 1, 2.5, big.NewRat(8, 1))},
	}
	devices := []GridDevice{TrivialLowerFamily(), ChaseMaxFamily()}
	grid := theorem8Case{run: func() ([]*Result, error) {
		rows, err := EvalGrid(cases, devices)
		var out []*Result
		for _, row := range rows {
			out = append(out, row...)
		}
		return out, err
	}}
	for _, c := range cases {
		for _, d := range devices {
			grid.names = append(grid.names, "EvalGrid/"+c.Name+"/"+d.Name)
		}
	}
	cs = append(cs, grid)
	k6, tri, dia := graph.Complete(6), graph.Triangle(), graph.Diamond()
	add("Theorem8Nodes/K6-chase-max", func() (*Result, error) {
		return Theorem8Nodes(params, k6, []int{0, 1}, []int{2, 3}, []int{4, 5}, 2, uniform(k6, NewChaseMax(params.L)))
	})
	for _, d := range []struct {
		name string
		b    Builder
	}{
		{"trivial-lower", NewTrivialLower(params.L)},
		{"chase-max", NewChaseMax(params.L)},
	} {
		add("Theorem8Nodes/triangle-"+d.name, func() (*Result, error) {
			return Theorem8Nodes(params, tri, []int{0}, []int{1}, []int{2}, 1, uniform(tri, d.b))
		})
		add("Theorem8Connectivity/diamond-"+d.name, func() (*Result, error) {
			return Theorem8Connectivity(params, dia, []int{1}, []int{3}, 0, 2, 1, uniform(dia, d.b))
		})
	}
	return cs
}

// renderTheorem8 writes one result: k, t”, every logical clock and
// floor at full precision, the covering run's tick and send counts, and
// every violation.
func renderTheorem8(b *strings.Builder, name string, r *Result) {
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	fmt.Fprintf(b, "== %s\nk %d\nt'' %s\n", name, r.K, r.TSecond.RatString())
	for i, c := range r.Logical {
		fmt.Fprintf(b, "logical %d %s\n", i, g(c))
	}
	for i, f := range r.Floors {
		fmt.Fprintf(b, "floor %d %s\n", i, g(f))
	}
	ticks, sends := 0, 0
	for _, recs := range r.Run.Ticks {
		ticks += len(recs)
	}
	for _, recs := range r.Run.Sends {
		sends += len(recs)
	}
	fmt.Fprintf(b, "ticks %d\nsends %d\n", ticks, sends)
	for _, v := range r.Violations {
		fmt.Fprintf(b, "violation %s\n", v)
	}
}

// TestTheorem8Golden pins every number a Theorem 8 proof reports, so a
// change to how the argument is run shows up line by line. Run with
// -update to rewrite the golden file.
func TestTheorem8Golden(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenTheorem8() {
		rs, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.names[0], err)
		}
		for i, r := range rs {
			renderTheorem8(&b, c.names[i], r)
		}
	}
	got := b.String()
	if *updateTheorem8 {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(theorem8Golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(theorem8Golden)
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
				t.Fatalf("Theorem 8 results differ from %s at line %d:\n got %q\nwant %q", theorem8Golden, i+1, g, w)
			}
		}
	}
}
