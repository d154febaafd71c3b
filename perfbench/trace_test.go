package main

import (
	"testing"

	"flm/internal/adversary"
	"flm/internal/sim"
	"flm/internal/sweep"
)

// TestSelfTimes checks the self-time arithmetic on a synthetic trace:
// recorded parents, engine roots attributed to the benchmark call that
// contains them, and parallel children clamping a parent's self time
// at zero.
func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "bench.op", Start: 0, Dur: 1000},
		{ID: 2, Par: 1, Name: "bench.prove", Start: 10, Dur: 600},
		// A splice started from a background context (no parent) inside
		// bench.prove, with one execution under it.
		{ID: 3, Name: "core.splice", Start: 100, Dur: 300},
		{ID: 4, Par: 3, Name: "sim.execute", Start: 150, Dur: 200},
		// A root execution straight under bench.prove.
		{ID: 5, Name: "sim.execute", Start: 450, Dur: 100},
		// A sweep whose two workers ran in parallel.
		{ID: 6, Par: 1, Name: "sweep.map", Start: 700, Dur: 200},
		{ID: 7, Par: 6, Name: "sweep.worker", Start: 700, Dur: 190},
		{ID: 8, Par: 6, Name: "sweep.worker", Start: 705, Dur: 190},
	}
	par := parentsOf(spans)
	for child, want := range map[uint64]uint64{2: 1, 3: 2, 4: 3, 5: 2, 6: 1, 7: 6} {
		if par[child] != want {
			t.Errorf("parent of span %d = %d, want %d", child, par[child], want)
		}
	}
	if _, ok := par[1]; ok {
		t.Error("the root benchmark span got a parent")
	}
	want := map[string]int64{
		"bench.op":     1000 - 600 - 200,
		"bench.prove":  600 - 300 - 100,
		"core.splice":  300 - 200,
		"sim.execute":  200 + 100,
		"sweep.map":    0, // 200 - (190 + 190) clamps at zero
		"sweep.worker": 380,
	}
	got := selfTimes(spans)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
	var total int64
	for _, s := range got {
		total += s
	}
	// Without parallelism the self times would add up to the root's
	// duration; the sweep's workers add their overlap (380 - 200).
	if total != 1000+180 {
		t.Errorf("self times sum to %d, want %d", total, 1180)
	}
}

func TestParseSpansSkipsOtherRecords(t *testing.T) {
	data := []byte(`{"t":"span","id":3,"par":1,"name":"sim.execute","start_us":12,"dur_us":340,"attrs":{"cache":"miss"}}
{"t":"event","id":7,"par":0,"name":"chaos.trial","at_us":99}
{"t":"metrics","at_us":1234,"counters":{"sim.cache.hit":41}}
`)
	spans, err := parseSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Name != "sim.execute" || spans[0].Dur != 340 || spans[0].Attrs["cache"] != "miss" {
		t.Fatalf("parsed %+v", spans)
	}
}

type plainDevice struct{ out sim.Outbox }

func (d *plainDevice) Init(string, []string, sim.Input) {}
func (d *plainDevice) Step(int, sim.Inbox) sim.Outbox   { return d.out }
func (d *plainDevice) Snapshot() string                 { return "s" }
func (d *plainDevice) Output() (sim.Decision, bool)     { return sim.Decision{Value: "1"}, true }

type fpDevice struct{ plainDevice }

func (d *fpDevice) DeviceFingerprint() string { return "fp/v1" }

// TestTimedWrapperForwards checks the device wrapper keeps what the
// engine type-asserts: a fingerprintable device keeps its fingerprint,
// a device without one gains none, and Step traffic is tallied.
func TestTimedWrapperForwards(t *testing.T) {
	var acc deviceAcc
	out := sim.Outbox{"b": "xy", "c": "z"}
	fp := timed(func(string, []string, sim.Input) sim.Device { return &fpDevice{plainDevice{out}} }, &acc)("a", nil, "0")
	if got := sim.FingerprintOf(fp); got != "fp/v1" {
		t.Errorf("wrapped fingerprint = %q, want fp/v1", got)
	}
	plain := timed(func(string, []string, sim.Input) sim.Device { return &plainDevice{out} }, &acc)("a", nil, "0")
	if _, ok := plain.(sim.Fingerprinter); ok {
		t.Error("wrapping gave a non-fingerprintable device a fingerprint")
	}
	fp.Step(1, nil)
	plain.Step(1, nil)
	if acc.steps.Load() != 2 || acc.msgs.Load() != 4 || acc.bytes.Load() != 6 {
		t.Errorf("tallies steps=%d msgs=%d bytes=%d, want 2, 4, 6", acc.steps.Load(), acc.msgs.Load(), acc.bytes.Load())
	}
	if d, ok := plain.Output(); !ok || d.Value != "1" || plain.Snapshot() != "s" {
		t.Error("Output/Snapshot not forwarded")
	}
}

// TestTracedCensusOp runs one small census batch on two sweep workers
// through the harness, untraced and traced: the device wrapper and the
// tracer are shared by both workers (run it with -race), the verdicts
// must agree, and the per-layer tallies must see the batch.
func TestTracedCensusOp(t *testing.T) {
	defer sweep.SetWorkers(sweep.SetWorkers(2))
	h := &harness{w: &censusWorkload{}}
	kinds, err := buildCensusKinds(h)
	if err != nil {
		t.Fatal(err)
	}
	k := kinds[0]
	trials := drawTrials(newRNG(1), k.g.N(), k.f, len(adversary.Panel(0)), 24)
	o := censusOp(k, 7, trials)
	plain, ok := h.measure(o, nil)
	if !ok {
		t.Fatalf("untraced op failed: %v", h.errors)
	}
	traced, ok := h.measure(o, &tracer{})
	if !ok {
		t.Fatalf("traced op failed: %v", h.errors)
	}
	if traced.verdict != plain.verdict {
		t.Errorf("traced verdict %q, untraced %q", traced.verdict, plain.verdict)
	}
	l := traced.layer
	if l.sweepTrials != 24 || l.executions != 24 || l.deviceSteps == 0 || l.l1Misses != 24 || l.l1Hits != 0 {
		t.Errorf("layer tallies: trials=%d executions=%d steps=%d l1 misses=%d hits=%d",
			l.sweepTrials, l.executions, l.deviceSteps, l.l1Misses, l.l1Hits)
	}
}
