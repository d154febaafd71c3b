// Package obs is the engine's unified observability layer: a span/event
// tracer with goroutine-safe JSONL export plus a registry of atomic
// counters, gauges, and histograms (metrics.go). The performance-critical
// subsystems — the simulator executor, the splice engine, the run cache,
// the parallel sweep pool, and the chaos harness — emit spans through this
// package so a single trace file explains where a workload's time,
// cache traffic, and chain structure went; `flm stats` replays such a
// file into a per-subsystem summary.
//
// The cardinal rule is zero overhead while disabled. No tracer is
// installed by default; Enabled is one atomic pointer load, StartSpan
// returns a nil *Span that every method treats as a no-op, and hot call
// sites guard attribute construction behind Enabled so the disabled path
// allocates nothing (TestExecuteUntracedAllocsLikeExecutor in
// internal/sim and TestSpliceUntracedAllocsLikeBody in internal/core pin
// it).
// Instrumentation must therefore follow the pattern
//
//	if obs.Enabled() {
//	    ctx, sp := obs.StartSpan(ctx, "sim.execute", obs.Int("rounds", n))
//	    defer sp.End()
//	    ...
//	}
//
// rather than building attributes unconditionally.
//
// Export format: one JSON object per line. Spans are written when they
// End (so a trace is ordered by completion), events when they fire, and
// Close appends a final metrics snapshot:
//
//	{"t":"span","id":3,"par":1,"name":"sim.execute","start_us":12,"dur_us":340,"attrs":{"rounds":8}}
//	{"t":"event","id":7,"par":0,"name":"chaos.trial","at_us":99,"attrs":{"outcome":"green"}}
//	{"t":"metrics","at_us":1234,"counters":{"sim.cache.hit":41},...}
//
// Timestamps are microseconds since the tracer was installed, taken from
// Go's monotonic clock, so span math is immune to wall-clock steps.
// Every line is assembled in a scratch buffer and handed to the
// underlying writer in exactly one Write under the tracer's lock, so
// concurrent spans (parallel sweep workers) can never interleave within
// a line.
package obs

import (
	"bufio"
	"context"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// attrKind discriminates Attr payloads without boxing values in an
// interface (which would allocate at every call site).
type attrKind uint8

const (
	kindStr attrKind = iota
	kindInt
	kindBool
	kindF64
)

// Attr is one key/value annotation on a span or event.
type Attr struct {
	Key  string
	str  string
	num  int64
	f    float64
	kind attrKind
}

// Str makes a string attribute.
func Str(key, val string) Attr { return Attr{Key: key, str: val, kind: kindStr} }

// Int makes an integer attribute.
func Int(key string, val int) Attr { return Attr{Key: key, num: int64(val), kind: kindInt} }

// Int64 makes a 64-bit integer attribute.
func Int64(key string, val int64) Attr { return Attr{Key: key, num: val, kind: kindInt} }

// Bool makes a boolean attribute.
func Bool(key string, val bool) Attr {
	n := int64(0)
	if val {
		n = 1
	}
	return Attr{Key: key, num: n, kind: kindBool}
}

// F64 makes a float attribute.
func F64(key string, val float64) Attr { return Attr{Key: key, f: val, kind: kindF64} }

// Tracer writes span/event records as JSON lines. Create one with
// NewTracer, install it with SetTracer, and Close it when the command
// finishes to flush buffered lines and append the metrics snapshot.
type Tracer struct {
	start time.Time
	ids   atomic.Uint64

	mu  sync.Mutex
	bw  *bufio.Writer
	buf []byte // per-record scratch, reused under mu
	err error  // first write error; subsequent records are dropped
}

// NewTracer returns a tracer exporting to w. The tracer buffers
// internally; the caller owns w's lifetime but must Close the tracer
// (not just w) to see every line.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{start: time.Now(), bw: bufio.NewWriterSize(w, 1<<16)}
}

// now is the record timestamp: microseconds since the tracer started,
// from the monotonic clock.
func (t *Tracer) now() int64 { return int64(time.Since(t.start) / time.Microsecond) }

// Err returns the first error the underlying writer reported, if any.
func (t *Tracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close appends the default metrics registry's snapshot as a final
// "metrics" line and flushes. It does not close the underlying writer.
func (t *Tracer) Close() error {
	t.writeMetrics(Metrics.Snapshot())
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		t.err = t.bw.Flush()
	}
	return t.err
}

// writeRecord assembles one line under the lock and writes it with a
// single Write call.
func (t *Tracer) writeRecord(build func(buf []byte) []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.buf = build(t.buf[:0])
	t.buf = append(t.buf, '\n')
	if _, err := t.bw.Write(t.buf); err != nil {
		t.err = err
	}
}

// active is the installed tracer; nil means tracing is off, and every
// entry point of this package collapses to an atomic load and a branch.
var active atomic.Pointer[Tracer]

// SetTracer installs t as the process-wide tracer (nil uninstalls) and
// returns a function restoring the previous one, for defer-style use in
// tests and the CLI.
func SetTracer(t *Tracer) (restore func()) {
	prev := active.Swap(t)
	return func() { active.Store(prev) }
}

// Enabled reports whether a tracer is installed. Hot paths branch on
// this before building any attributes.
func Enabled() bool { return active.Load() != nil }

// Span is one timed, named region. A nil *Span is valid and inert —
// StartSpan returns nil whenever tracing is disabled — so callers never
// need a second enabled-check before End or SetAttrs. A span belongs to
// the goroutine that started it; End must be called exactly once, and
// SetAttrs must not race with End.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	start  int64
	attrs  []Attr
}

// ctxKey carries the current span through a context for nesting.
type ctxKey struct{}

// StartSpan begins a span named name, child of the span in ctx (if any),
// and returns a derived context carrying it. With no tracer installed it
// returns (ctx, nil) untouched.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	t := active.Load()
	if t == nil {
		return ctx, nil
	}
	var parent uint64
	if p, ok := ctx.Value(ctxKey{}).(*Span); ok && p != nil {
		parent = p.id
	}
	s := &Span{t: t, id: t.ids.Add(1), parent: parent, name: name, start: t.now()}
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// SetAttrs appends attributes to the span; no-op on nil. It returns the
// span so call sites can chain it into a defer.
func (s *Span) SetAttrs(attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, attrs...)
	return s
}

// End writes the span's record; no-op on nil. The tracer that started
// the span keeps receiving it even if the global tracer changed
// meanwhile, so spans never land in a file they did not start in.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.t.now()
	s.t.writeRecord(func(buf []byte) []byte {
		buf = append(buf, `{"t":"span","id":`...)
		buf = appendUint(buf, s.id)
		buf = append(buf, `,"par":`...)
		buf = appendUint(buf, s.parent)
		buf = append(buf, `,"name":`...)
		buf = appendJSONString(buf, s.name)
		buf = append(buf, `,"start_us":`...)
		buf = appendInt(buf, s.start)
		buf = append(buf, `,"dur_us":`...)
		buf = appendInt(buf, end-s.start)
		buf = appendAttrs(buf, s.attrs)
		return append(buf, '}')
	})
}

// Event writes a point-in-time record named name, attributed to the span
// in ctx (if any). No-op with no tracer installed.
func Event(ctx context.Context, name string, attrs ...Attr) {
	t := active.Load()
	if t == nil {
		return
	}
	var parent uint64
	if p, ok := ctx.Value(ctxKey{}).(*Span); ok && p != nil {
		parent = p.id
	}
	id := t.ids.Add(1)
	at := t.now()
	t.writeRecord(func(buf []byte) []byte {
		buf = append(buf, `{"t":"event","id":`...)
		buf = appendUint(buf, id)
		buf = append(buf, `,"par":`...)
		buf = appendUint(buf, parent)
		buf = append(buf, `,"name":`...)
		buf = appendJSONString(buf, name)
		buf = append(buf, `,"at_us":`...)
		buf = appendInt(buf, at)
		buf = appendAttrs(buf, attrs)
		return append(buf, '}')
	})
}

// appendAttrs renders `,"attrs":{...}` (nothing when attrs is empty).
// A duplicate key keeps both entries; consumers take the last, which
// matches "later SetAttrs wins".
func appendAttrs(buf []byte, attrs []Attr) []byte {
	if len(attrs) == 0 {
		return buf
	}
	buf = append(buf, `,"attrs":{`...)
	for i, a := range attrs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, a.Key)
		buf = append(buf, ':')
		switch a.kind {
		case kindStr:
			buf = appendJSONString(buf, a.str)
		case kindInt:
			buf = appendInt(buf, a.num)
		case kindBool:
			if a.num != 0 {
				buf = append(buf, "true"...)
			} else {
				buf = append(buf, "false"...)
			}
		case kindF64:
			buf = appendFloat(buf, a.f)
		}
	}
	return append(buf, '}')
}
