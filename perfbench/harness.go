package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"flm"
	"flm/internal/obs"
	"flm/internal/sim"
	"flm/perfbench/refkernel"
)

// rng is splitmix64: a tiny, explicit generator so every input the
// benchmark draws is a pure function of the seed on any Go version.
type rng struct{ s uint64 }

// newRNG derives an independent stream from the run seed and a path of
// labels (pass index, kind index, ...).
func newRNG(seed int64, path ...int64) *rng {
	r := &rng{s: uint64(seed) ^ 0x6a09e667f3bcc909}
	for _, p := range path {
		r.s ^= uint64(p) * 0x9e3779b97f4a7c15
		r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a uniformly random permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// wrapFn wraps a device builder; the traced run installs the timing
// wrapper, the untraced run the identity.
type wrapFn func(sim.Builder) sim.Builder

func identity(b sim.Builder) sim.Builder { return b }

// opEnv is what a running op sees: the context carrying the op's
// benchmark span (traced runs only) and the device-builder wrapper.
type opEnv struct {
	ctx  context.Context
	wrap wrapFn
}

// call runs one public call of the program under a benchmark span
// (a no-op span when tracing is off), so the traced run can attribute
// root spans of the engine and time the call itself.
func (e *opEnv) call(name string, f func() error) error {
	_, sp := obs.StartSpan(e.ctx, name)
	err := f()
	sp.End()
	return err
}

// op is one unit of closed-loop work. run is timed; check is not, and
// returns the op's verdict (a rendering of its output that any rerun of
// the same op must reproduce) or the reason the output is wrong.
type op struct {
	kind string
	// input renders the op's seeded inputs; generation is a pure
	// function of the seed exactly when these renderings are.
	input string
	run   func(env *opEnv) (any, error)
	check func(res any, st *opStats) (string, error)
}

// opStats are output-derived counts an op's check reports for the
// per-layer metrics.
type opStats struct {
	coreProofs int
	coverNodes int
	findings   int
}

// workload is one of the benchmark's workloads.
type workload interface {
	// setup generates the inputs and runs the set-up passes through h.
	// It is called several times per run; each call starts afresh.
	setup(h *harness) error
	// pass returns the ops of measured pass k.
	pass(k int) []op
	// precheck verifies the op's hermetic preconditions, right after the
	// run caches were reset.
	precheck() error
	// close releases what setup created (the warm store).
	close()
}

// sample is one measured op.
type sample struct {
	kind     string
	raw      float64 // wall-clock ms
	corr     float64 // drift-corrected ms
	ref      float64 // mean reference-kernel ms around the op
	alloc    float64 // heap bytes allocated
	retained float64 // live heap bytes after the post-op GC fence
	gcs      uint32  // GC cycles during the op
	pauseNs  uint64  // GC pause during the op
	verdict  string
	layer    *layerSample // traced ops only
}

// harness drives ops closed-loop: one caller, each op starting when the
// previous one returned, every op bracketed by GC fences and reference
// kernel timings, checked after it is timed.
type harness struct {
	w workload

	// setupMS accumulates the drift-corrected set-up time of the current
	// set-up repetition, setupRawMS its wall-clock time.
	setupMS, setupRawMS float64

	// graphMS is the drift-corrected time of graph-layer calls in the
	// current set-up (connectivity, cuts, Dolev paths); stepGraphRaw
	// collects their wall time within one set-up step.
	graphMS, stepGraphRaw float64

	// The run cache zeroes its counters on every reset, so the disk
	// tier's totals are summed op by op: bytes written (diskWritten, and
	// its value when the last set-up began, diskMark) and corrupt blobs
	// rejected (diskCorrupt).
	diskWritten, diskMark, diskCorrupt uint64

	attempted, failed int
	errors            []string
	refs              []float64 // every reference-kernel timing, ms
}

// graphCall runs graph-layer set-up work, timing it for graph.setup_ms.
func (h *harness) graphCall(f func()) {
	t0 := time.Now()
	f()
	h.stepGraphRaw += ms(time.Since(t0))
}

// kernelRuns is how many back-to-back kernel runs one kernel timing
// averages.
const kernelRuns = 4

// kernel times the reference kernel: the mean of kernelRuns back-to-back
// runs, after one untimed run that brings the kernel's table back into
// cache and the CPU out of the GC pause before it (a kernel timed
// straight after runtime.GC runs up to twice as slow as one in a busy
// loop, the state the ops run in). The mean, not the best, of the runs
// is kept: time stolen by other tenants of the host is most of the
// drift, and it slows the kernel and the ops alike only on average.
func (h *harness) kernel() time.Duration {
	refkernel.Run()
	t0 := time.Now()
	for i := 0; i < kernelRuns; i++ {
		if s := refkernel.Run(); s != refkernel.Checksum {
			panic(fmt.Sprintf("reference kernel checksum %#x, want %#x", s, refkernel.Checksum))
		}
	}
	d := time.Since(t0) / kernelRuns
	h.refs = append(h.refs, ms(d))
	return d
}

// fail records a failed op.
func (h *harness) fail(kind string, err error) {
	h.failed++
	if len(h.errors) < 8 {
		h.errors = append(h.errors, fmt.Sprintf("%s: %v", kind, err))
	}
}

// timeSetupStep runs one set-up step that is not an op (input
// generation) as a drift-corrected interval added to the set-up time.
func (h *harness) timeSetupStep(f func() error) error {
	runtime.GC()
	r0 := h.kernel()
	t0 := time.Now()
	err := f()
	raw := time.Since(t0)
	runtime.GC()
	r1 := h.kernel()
	c := correct(raw, r0, r1)
	h.setupMS += c
	h.setupRawMS += ms(raw)
	if raw > 0 {
		h.graphMS += h.stepGraphRaw * c / ms(raw)
	}
	h.stepGraphRaw = 0
	return err
}

// setupPass measures and checks every op of a set-up pass, adding their
// corrected times to the set-up time.
func (h *harness) setupPass(ops []op) {
	for _, o := range ops {
		s, _ := h.measure(o, nil)
		h.setupMS += s.corr
		h.setupRawMS += s.raw
	}
}

// leakSettle bounds how long an op's finished goroutines may take to
// exit before the op counts as leaking one.
const leakSettle = 200 * time.Millisecond

// measure runs one op: reset the run caches (every op starts from an
// empty L1), check the hermetic preconditions, fence the heap, time the
// reference kernel, time the op, fence again, time the kernel again,
// wait for the op's goroutines to be gone, and check the output. With
// a tracer state the op runs traced and its per-layer sample is
// collected. ok is false when the op failed; the failure is recorded.
func (h *harness) measure(o op, tr *tracer) (s sample, ok bool) {
	s.kind = o.kind
	h.attempted++
	flm.ResetRunCaches()
	if err := h.w.precheck(); err != nil {
		h.fail(o.kind, err)
		return s, false
	}
	g0 := runtime.NumGoroutine()
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	r0 := h.kernel()
	env := &opEnv{ctx: context.Background(), wrap: identity}
	if tr != nil {
		env = tr.begin()
	}
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := o.run(env)
	raw := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if tr != nil {
		tr.end()
	}
	runtime.GC()
	runtime.ReadMemStats(&m2)
	r1 := h.kernel()

	s.raw = ms(raw)
	s.corr = correct(raw, r0, r1)
	s.ref = (ms(r0) + ms(r1)) / 2
	s.alloc = float64(m1.TotalAlloc - m0.TotalAlloc)
	s.retained = float64(m2.HeapAlloc)
	s.gcs = m1.NumGC - m0.NumGC
	s.pauseNs = m1.PauseTotalNs - m0.PauseTotalNs

	// The counters count from this op's cache reset.
	rc := flm.RunCacheStats()
	h.diskWritten += rc.DiskBytesWritten
	h.diskCorrupt += rc.DiskCorrupt
	if rc.DiskCorrupt != 0 {
		h.fail(o.kind, fmt.Errorf("disk tier rejected %d corrupt blob(s)", rc.DiskCorrupt))
		return s, false
	}

	for deadline := time.Now().Add(leakSettle); runtime.NumGoroutine() > g0; {
		if time.Now().After(deadline) {
			h.fail(o.kind, fmt.Errorf("leaked %d goroutine(s)", runtime.NumGoroutine()-g0))
			return s, false
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		h.fail(o.kind, err)
		return s, false
	}
	var st opStats
	s.verdict, err = o.check(res, &st)
	if err != nil {
		h.fail(o.kind, err)
		return s, false
	}
	if tr != nil {
		if s.layer, err = tr.collect(&st, R0/s.ref); err != nil {
			h.fail(o.kind, err)
			return s, false
		}
	}
	return s, true
}
