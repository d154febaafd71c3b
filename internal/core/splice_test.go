//go:build !race

// The race detector's instrumentation allocates on its own, and not
// deterministically, so this allocation-count test is built only
// without it.

package core

import (
	"context"
	"testing"

	"flm/internal/byzantine"
	"flm/internal/graph"
	"flm/internal/obs"
	"flm/internal/runcache"
)

// TestSpliceUntracedAllocsLikeBody pins the zero-cost disabled path of
// the splice engine: with no tracer installed and the run cache off,
// SpliceScenario must allocate exactly what spliceCore allocates, so its
// span costs nothing until a tracer is installed. Every call builds and
// executes a fresh G-system on both sides.
func TestSpliceUntracedAllocsLikeBody(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("a tracer is installed; disabled-path test is meaningless")
	}
	restoreCache := runcache.SetEnabled(false)
	defer restoreCache()
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
	u := []int{1, 2}
	allocs := func(splice func() (*Splice, error)) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := splice(); err != nil {
				t.Fatal(err)
			}
		})
	}
	public := allocs(func() (*Splice, error) { return SpliceScenario(inst, runS, u, builders) })
	body := allocs(func() (*Splice, error) { return spliceCore(context.Background(), inst, runS, u, builders) })
	if public != body {
		t.Fatalf("untraced SpliceScenario allocates %v objects per splice, spliceCore %v", public, body)
	}
}
