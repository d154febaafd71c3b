package sim

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"flm/internal/graph"
	"flm/internal/runcache"
)

// countingDevice is a deterministic fingerprintable device whose Step
// invocations are observable through a shared counter, so tests can tell
// a real execution from a cache hit.
type countingDevice struct {
	nbs   []string
	tag   string
	steps *atomic.Int64
}

func (d *countingDevice) Init(self string, neighbors []string, input Input) {
	d.nbs = append([]string(nil), neighbors...)
}

func (d *countingDevice) Step(round int, inbox Inbox) Outbox {
	d.steps.Add(1)
	out := make(Outbox, len(d.nbs))
	for i := range out {
		out[i] = Payload(d.tag)
	}
	return out
}

func (d *countingDevice) Snapshot() string          { return "counting:" + d.tag }
func (d *countingDevice) Output() (Decision, bool)  { return Decision{}, false }
func (d *countingDevice) DeviceFingerprint() string { return "test/counting:" + d.tag }

// opaqueDevice has no fingerprint, making any system containing it
// bypass the cache.
type opaqueDevice struct{ steps *atomic.Int64 }

func (d *opaqueDevice) Init(self string, neighbors []string, input Input) {}
func (d *opaqueDevice) Step(round int, inbox Inbox) Outbox {
	d.steps.Add(1)
	return nil
}
func (d *opaqueDevice) Snapshot() string         { return "opaque" }
func (d *opaqueDevice) Output() (Decision, bool) { return Decision{}, false }

func triangle(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.MustNew("a", "b", "c")
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func countingSystem(t testing.TB, g *graph.Graph, tag string, steps *atomic.Int64) *System {
	t.Helper()
	p := Protocol{Builders: map[string]Builder{}, Inputs: map[string]Input{}}
	for _, name := range g.Names() {
		p.Builders[name] = func(self string, neighbors []string, input Input) Device {
			d := &countingDevice{tag: tag, steps: steps}
			d.Init(self, neighbors, input)
			return d
		}
		p.Inputs[name] = Input("1")
	}
	sys, err := NewSystem(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestCacheHitSkipsExecution is the hit/miss accounting test: a repeat
// of an identical fresh system is served from the cache without stepping
// any device, and the returned run is the shared instance.
func TestCacheHitSkipsExecution(t *testing.T) {
	restore := runcache.SetEnabled(true)
	defer restore()
	ResetRunCache()
	g := triangle(t)
	var steps atomic.Int64

	r1, err := ExecuteWith(countingSystem(t, g, "hit-skip", &steps), 3, FullRecording)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := steps.Load()
	if afterFirst != 9 { // 3 nodes x 3 rounds
		t.Fatalf("first execution stepped %d times, want 9", afterFirst)
	}
	st0 := RunCacheStats()

	r2, err := ExecuteWith(countingSystem(t, g, "hit-skip", &steps), 3, FullRecording)
	if err != nil {
		t.Fatal(err)
	}
	if steps.Load() != afterFirst {
		t.Fatalf("cache hit stepped devices (%d -> %d steps)", afterFirst, steps.Load())
	}
	if r2 != r1 {
		t.Fatal("cache hit returned a different *Run than the original execution")
	}
	st1 := RunCacheStats()
	if st1.Hits != st0.Hits+1 || st1.Misses != st0.Misses {
		t.Fatalf("stats went %+v -> %+v, want exactly one more hit", st0, st1)
	}
}

// TestCacheEquivalence pins byte-identical results: the cached run and a
// cache-disabled run of the same system agree on every recorded field.
func TestCacheEquivalence(t *testing.T) {
	restore := runcache.SetEnabled(true)
	defer restore()
	ResetRunCache()
	g := triangle(t)
	var steps atomic.Int64

	cached, err := ExecuteWith(countingSystem(t, g, "equiv", &steps), 4, FullRecording)
	if err != nil {
		t.Fatal(err)
	}
	off := runcache.SetEnabled(false)
	plain, err := ExecuteWith(countingSystem(t, g, "equiv", &steps), 4, FullRecording)
	off()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached.Snapshots, plain.Snapshots) {
		t.Fatal("snapshots differ between cached and uncached execution")
	}
	if !reflect.DeepEqual(cached.Edges, plain.Edges) {
		t.Fatal("edge behaviors differ between cached and uncached execution")
	}
	if !reflect.DeepEqual(cached.Decisions, plain.Decisions) {
		t.Fatal("decisions differ between cached and uncached execution")
	}
	if !reflect.DeepEqual(cached.Inputs, plain.Inputs) {
		t.Fatal("inputs differ between cached and uncached execution")
	}
}

// TestCacheKeySeparatesModes verifies fast and full recordings never
// share an entry (their Runs have different shapes), and different
// rounds/inputs/devices miss as they must.
func TestCacheKeySeparatesModes(t *testing.T) {
	restore := runcache.SetEnabled(true)
	defer restore()
	ResetRunCache()
	g := triangle(t)
	var steps atomic.Int64

	full, err := ExecuteWith(countingSystem(t, g, "modes", &steps), 2, FullRecording)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := ExecuteWith(countingSystem(t, g, "modes", &steps), 2, ExecuteOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if full == fast {
		t.Fatal("fast and full recordings shared one cache entry")
	}
	if fast.Snapshots != nil || fast.Edges != nil {
		t.Fatal("fast-mode run carries recordings")
	}
	longer, err := ExecuteWith(countingSystem(t, g, "modes", &steps), 3, FullRecording)
	if err != nil {
		t.Fatal(err)
	}
	if longer == full {
		t.Fatal("different round counts shared one cache entry")
	}
}

// TestCacheBypasses covers the three bypass paths: a device without a
// fingerprint, a cancellable context, and a disabled cache.
func TestCacheBypasses(t *testing.T) {
	restore := runcache.SetEnabled(true)
	defer restore()
	ResetRunCache()
	g := triangle(t)
	var steps atomic.Int64

	opaque := func() *System {
		p := Protocol{Builders: map[string]Builder{}, Inputs: map[string]Input{}}
		for _, name := range g.Names() {
			p.Builders[name] = func(self string, neighbors []string, input Input) Device {
				return &opaqueDevice{steps: &steps}
			}
			p.Inputs[name] = Input("0")
		}
		sys, err := NewSystem(g, p)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	st0 := RunCacheStats()
	for i := 0; i < 2; i++ {
		if _, err := ExecuteWith(opaque(), 2, FullRecording); err != nil {
			t.Fatal(err)
		}
	}
	if steps.Load() != 12 { // both executions ran: 2 x 3 nodes x 2 rounds
		t.Fatalf("opaque system stepped %d times, want 12 (no caching)", steps.Load())
	}
	if st := RunCacheStats(); st != st0 {
		t.Fatalf("opaque system touched the cache: %+v -> %+v", st0, st)
	}

	steps.Store(0)
	off := runcache.SetEnabled(false)
	for i := 0; i < 2; i++ {
		if _, err := ExecuteWith(countingSystem(t, g, "disabled", &steps), 2, FullRecording); err != nil {
			t.Fatal(err)
		}
	}
	off()
	if steps.Load() != 12 {
		t.Fatalf("disabled cache stepped %d times, want 12", steps.Load())
	}
}

// TestCacheSingleFlight executes the same fingerprint from many
// goroutines at once and demands exactly one real execution. Run under
// the race gate (FLM_WORKERS=4 go test -race) this is the concurrent
// fingerprint-collision test of the sweep engine's cache contract.
func TestCacheSingleFlight(t *testing.T) {
	restore := runcache.SetEnabled(true)
	defer restore()
	ResetRunCache()
	g := triangle(t)
	var steps atomic.Int64

	const workers = 8
	var wg sync.WaitGroup
	runs := make([]*Run, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		sys := countingSystem(t, g, "single-flight", &steps)
		go func(i int, sys *System) {
			defer wg.Done()
			<-start
			runs[i], errs[i] = ExecuteWith(sys, 3, FullRecording)
		}(i, sys)
	}
	close(start)
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if runs[i] != runs[0] {
			t.Fatalf("worker %d received a different run instance", i)
		}
	}
	if steps.Load() != 9 { // one execution: 3 nodes x 3 rounds
		t.Fatalf("%d concurrent executions stepped %d times, want 9 (single flight)", workers, steps.Load())
	}
}
