package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the metrics half of the layer: named atomic counters,
// gauges, and histograms, registered once at package init of the
// instrumented subsystem and snapshotable as JSON (the trace file's
// final "metrics" line). Updating a metric is an atomic op — no locks,
// no allocation — so instrumented hot paths may tick them
// unconditionally; by convention the engine only does so on its traced
// paths, keeping the disabled engine byte-for-byte identical to the
// uninstrumented one.

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates the count, sum, and max of non-negative integer
// samples (the engine records durations in microseconds): enough for a
// mean and a worst case, which is what the trace's metrics line carries.
type Histogram struct {
	count atomic.Uint64
	sum   atomic.Uint64
	max   atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	Count uint64
	Sum   uint64
	Max   uint64
}

// Mean returns the average sample, or 0 with no samples.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Registry holds named metrics. Metric constructors are idempotent per
// name, so concurrent packages can share a series safely.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Metrics is the default registry; the engine's instrumentation
// registers everything here, and Tracer.Close snapshots it into the
// trace file.
var Metrics = NewRegistry()

// NewCounter returns the counter registered under name, creating it on
// first use.
func (r *Registry) NewCounter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// NewGauge returns the gauge registered under name, creating it on
// first use.
func (r *Registry) NewGauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// NewHistogram returns the histogram registered under name, creating it
// on first use.
func (r *Registry) NewHistogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// NewCounter registers on the default registry.
func NewCounter(name string) *Counter { return Metrics.NewCounter(name) }

// NewGauge registers on the default registry.
func NewGauge(name string) *Gauge { return Metrics.NewGauge(name) }

// NewHistogram registers on the default registry.
func NewHistogram(name string) *Histogram { return Metrics.NewHistogram(name) }

// Snapshot is a consistent-enough view of a registry: each series is
// read atomically, the set of series under the lock.
type Snapshot struct {
	Counters map[string]uint64
	Gauges   map[string]int64
	Hists    map[string]HistogramSnapshot
}

// Snapshot captures every registered series.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
		Hists:    make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Hists[name] = HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	}
	return s
}

// Reset zeroes every registered series (the series themselves stay
// registered, so pointers held by instrumented code remain valid). Only
// tests call it, to read the metrics of one run from zero; the CLI runs
// one command per process.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		h.count.Store(0)
		h.sum.Store(0)
		h.max.Store(0)
	}
}

// sortedKeys returns map keys in stable order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// AppendJSON renders the snapshot as the body of a metrics record
// (sorted keys, no trailing newline).
func (s Snapshot) AppendJSON(buf []byte) []byte {
	buf = append(buf, `"counters":{`...)
	for i, name := range sortedKeys(s.Counters) {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, name)
		buf = append(buf, ':')
		buf = appendUint(buf, s.Counters[name])
	}
	buf = append(buf, `},"gauges":{`...)
	for i, name := range sortedKeys(s.Gauges) {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, name)
		buf = append(buf, ':')
		buf = appendInt(buf, s.Gauges[name])
	}
	buf = append(buf, `},"hists":{`...)
	for i, name := range sortedKeys(s.Hists) {
		if i > 0 {
			buf = append(buf, ',')
		}
		h := s.Hists[name]
		buf = appendJSONString(buf, name)
		buf = append(buf, `:{"count":`...)
		buf = appendUint(buf, h.Count)
		buf = append(buf, `,"sum":`...)
		buf = appendUint(buf, h.Sum)
		buf = append(buf, `,"max":`...)
		buf = appendUint(buf, h.Max)
		buf = append(buf, '}')
	}
	return append(buf, '}')
}

// writeMetrics appends the snapshot as a "metrics" record.
func (t *Tracer) writeMetrics(s Snapshot) {
	at := t.now()
	t.writeRecord(func(buf []byte) []byte {
		buf = append(buf, `{"t":"metrics","at_us":`...)
		buf = appendInt(buf, at)
		buf = append(buf, ',')
		buf = s.AppendJSON(buf)
		return append(buf, '}')
	})
}
