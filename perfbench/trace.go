package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"flm"
	"flm/internal/obs"
	"flm/internal/sim"
)

// The traced run installs the program's own tracer (obs.NewTracer +
// obs.SetTracer) for each traced op, keeps the op's spans in memory,
// and folds them with the counter deltas, the run-cache statistics and
// the device wrapper's tallies into one layerSample. No span is added
// inside the program: the benchmark only adds spans around its own
// calls ("bench.op" around the op, "bench.prove", "bench.theorem8",
// "bench.census", "bench.chaos" around each public call).

// deviceAcc tallies the Step calls of wrapped devices. Census trials
// run on two sweep workers, so the counters are atomic.
type deviceAcc struct {
	steps, stepNs, msgs, bytes atomic.Int64
}

// timedDevice wraps a protocol device and times its Step calls.
type timedDevice struct {
	inner sim.Device
	acc   *deviceAcc
}

func (d *timedDevice) Init(self string, neighbors []string, input sim.Input) {
	d.inner.Init(self, neighbors, input)
}

func (d *timedDevice) Step(round int, inbox sim.Inbox) sim.Outbox {
	t0 := time.Now()
	out := d.inner.Step(round, inbox)
	d.acc.stepNs.Add(int64(time.Since(t0)))
	d.acc.steps.Add(1)
	n := 0
	for _, p := range out {
		n += len(p)
	}
	d.acc.msgs.Add(int64(len(out)))
	d.acc.bytes.Add(int64(n))
	return out
}

func (d *timedDevice) Snapshot() string             { return d.inner.Snapshot() }
func (d *timedDevice) Output() (sim.Decision, bool) { return d.inner.Output() }

// timedFPDevice is timedDevice for a fingerprintable inner device. It
// forwards DeviceFingerprint unchanged, so run-cache keys (and the
// cache's decision to engage at all) are the same traced or not; a
// device without a fingerprint stays without one.
type timedFPDevice struct {
	timedDevice
	fp sim.Fingerprinter
}

func (d *timedFPDevice) DeviceFingerprint() string { return d.fp.DeviceFingerprint() }

// timed wraps a builder so its devices are timed into acc.
func timed(b sim.Builder, acc *deviceAcc) sim.Builder {
	return func(self string, neighbors []string, input sim.Input) sim.Device {
		d := b(self, neighbors, input)
		td := timedDevice{inner: d, acc: acc}
		if fp, ok := d.(sim.Fingerprinter); ok {
			return &timedFPDevice{timedDevice: td, fp: fp}
		}
		return &td
	}
}

// spanRec is one span line of the tracer's JSONL export.
type spanRec struct {
	ID    uint64         `json:"id"`
	Par   uint64         `json:"par"`
	Name  string         `json:"name"`
	Start int64          `json:"start_us"`
	Dur   int64          `json:"dur_us"`
	Attrs map[string]any `json:"attrs"`
}

// parseSpans reads the span lines of a JSONL trace.
func parseSpans(data []byte) ([]spanRec, error) {
	var out []spanRec
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte(`{"t":"span"`)) {
			continue
		}
		var r spanRec
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("trace line: %w", err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// parentsOf assigns every span its parent: the recorded parent when
// that span is in the set, else the innermost benchmark span ("bench."
// prefix) whose interval contains it. The engine starts some spans from
// a background context (core.splice, core.chain.link, and sim.execute
// inside sweep trials); they belong to the benchmark call that was
// running when they started.
func parentsOf(spans []spanRec) map[uint64]uint64 {
	ids := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	par := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		if s.Par != 0 && ids[s.Par] {
			par[s.ID] = s.Par
			continue
		}
		var best *spanRec
		for i := range spans {
			b := &spans[i]
			if b.ID == s.ID || !strings.HasPrefix(b.Name, "bench.") {
				continue
			}
			if b.Start <= s.Start && s.Start+s.Dur <= b.Start+b.Dur && (best == nil || b.Dur < best.Dur) {
				best = b
			}
		}
		if best != nil {
			par[s.ID] = best.ID
		}
	}
	return par
}

// selfTimes returns, per span name, the sum over its spans of the span's
// duration minus its children's durations, in microseconds. A parent
// whose children ran in parallel (a sweep and its workers) can have
// children summing to more than its own duration; its self time is then
// 0, never negative.
func selfTimes(spans []spanRec) map[string]int64 {
	par := parentsOf(spans)
	child := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		if p, ok := par[s.ID]; ok {
			child[p] += s.Dur
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		self := s.Dur - child[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] += self
	}
	return out
}

// layerSample is one traced op's per-layer tally. Times are
// drift-corrected milliseconds.
type layerSample struct {
	opMS          float64
	simSelfMS     float64
	executions    int
	deviceMS      float64
	deviceSteps   int64
	messages      int64
	bytes         int64
	asyncLost     uint64
	spliceSelfMS  float64
	splices       int
	links         int
	spliceHits    uint64
	spliceLookups uint64
	theorem8MS    float64
	l1Hits        uint64
	l1Misses      uint64
	l1Waits       uint64
	evictions     uint64
	bypass        uint64
	l1Retained    uint64
	diskHits      uint64
	diskMisses    uint64
	diskRead      uint64
	sweepTrials   uint64
	sweepFaults   uint64
	sweepBusyUS   int64
	sweepWallUS   int64
	shrinkEvals   uint64
	shrinkMS      float64
	stats         opStats
}

// tracer runs one op at a time under the program's tracer.
type tracer struct {
	buf     bytes.Buffer
	t       *obs.Tracer
	restore func()
	root    *obs.Span
	dev     deviceAcc
	c0, c1  obs.Snapshot
	rc0     flm.RunCacheStatsReport
	rc1     flm.RunCacheStatsReport
	sc0     flm.RunCacheStatsReport
	sc1     flm.RunCacheStatsReport
	keep    *bytes.Buffer // the whole run's trace, when asked for
}

// begin snapshots the counters, installs a fresh tracer and opens the
// op's root span; it returns the environment the op runs in.
func (t *tracer) begin() *opEnv {
	t.buf.Reset()
	t.dev = deviceAcc{}
	t.c0 = obs.Metrics.Snapshot()
	t.rc0, t.sc0 = flm.RunCacheStats(), flm.SpliceCacheStats()
	t.t = obs.NewTracer(&t.buf)
	t.restore = obs.SetTracer(t.t)
	ctx, root := obs.StartSpan(context.Background(), "bench.op")
	t.root = root
	return &opEnv{ctx: ctx, wrap: func(b sim.Builder) sim.Builder { return timed(b, &t.dev) }}
}

// end closes the root span, uninstalls the tracer and snapshots the
// counters, before the op's output is checked.
func (t *tracer) end() {
	t.root.End()
	t.restore()
	t.c1 = obs.Metrics.Snapshot()
	t.rc1, t.sc1 = flm.RunCacheStats(), flm.SpliceCacheStats()
}

// collect folds the op's trace into a layerSample; factor is the op's
// drift correction R0/R, applied to every time.
func (t *tracer) collect(st *opStats, factor float64) (*layerSample, error) {
	if err := t.t.Close(); err != nil {
		return nil, err
	}
	if t.keep != nil {
		t.keep.Write(t.buf.Bytes())
	}
	spans, err := parseSpans(t.buf.Bytes())
	if err != nil {
		return nil, err
	}
	self := selfTimes(spans)
	usMS := func(us int64) float64 { return float64(us) / 1000 * factor }
	l := &layerSample{stats: *st}
	for _, s := range spans {
		switch s.Name {
		case "bench.op":
			l.opMS += usMS(s.Dur)
		case "sim.execute":
			switch s.Attrs["cache"] {
			case "hit", "wait", "disk":
			default:
				l.executions++
			}
		case "core.splice":
			l.splices++
		case "core.chain.link":
			l.links++
		case "bench.theorem8":
			l.theorem8MS += usMS(s.Dur)
		case "sweep.worker":
			busy, _ := s.Attrs["busy_us"].(float64)
			idle, _ := s.Attrs["idle_us"].(float64)
			l.sweepBusyUS += int64(busy)
			l.sweepWallUS += int64(busy + idle)
		case "chaos.shrink":
			l.shrinkMS += usMS(s.Dur)
		}
	}
	l.deviceMS = float64(t.dev.stepNs.Load()) / 1e6 * factor
	l.deviceSteps = t.dev.steps.Load()
	l.messages = t.dev.msgs.Load()
	l.bytes = t.dev.bytes.Load()
	l.simSelfMS = usMS(self["sim.execute"]) - l.deviceMS
	if l.simSelfMS < 0 {
		l.simSelfMS = 0
	}
	l.spliceSelfMS = usMS(self["core.splice"])

	delta := func(name string) uint64 { return t.c1.Counters[name] - t.c0.Counters[name] }
	l.asyncLost = delta("sim.async.lost")
	l.bypass = delta("sim.cache.bypass")
	l.sweepTrials = delta("sweep.trials")
	l.sweepFaults = delta("sweep.trial.faults")
	l.shrinkEvals = delta("chaos.shrink.evals")

	rc := t.rc1.Since(t.rc0)
	l.l1Hits, l.l1Misses, l.l1Waits, l.evictions = rc.Hits, rc.Misses, rc.Waits, rc.Evictions
	l.l1Retained = t.rc1.BytesRetained
	l.diskHits, l.diskMisses = rc.DiskHits, rc.DiskMisses
	l.diskRead = rc.DiskBytesRead
	sc := t.sc1.Since(t.sc0)
	l.spliceHits, l.spliceLookups = sc.Hits, sc.Hits+sc.Misses
	return l, nil
}
