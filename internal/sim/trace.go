package sim

import "flm/internal/obs"

// Observability for the executor hot path. ExecuteCtx ticks these only
// once obs.Enabled() has opened its span, so the disabled engine
// allocates exactly what the executor does
// (TestExecuteUntracedAllocsLikeExecutor pins it).
var (
	mExecRuns    = obs.NewCounter("sim.exec.runs")
	mExecErrors  = obs.NewCounter("sim.exec.errors")
	mCacheHit    = obs.NewCounter("sim.cache.hit")
	mCacheWait   = obs.NewCounter("sim.cache.wait")
	mCacheMiss   = obs.NewCounter("sim.cache.miss")
	mCacheDisk   = obs.NewCounter("sim.cache.disk")
	mCacheBypass = obs.NewCounter("sim.cache.bypass")
	hExecDur     = obs.NewHistogram("sim.exec.dur_us")
)

// Message accounting for delay-schedule (adversarial asynchrony)
// executions. Every message dispatched under a delay schedule is
// classified exactly once — delivered into an inbox, lost past the
// round horizon, or collided (overwritten in its mailbox slot by a
// later send on the same edge before its delivery round) — so traced
// E19/E20-style runs satisfy sent = delivered + lost + collided;
// delayed counts the subset of sent with a positive extra delay.
// Synchronous executions never touch these: the accounting object only
// exists when a delay schedule is present AND a tracer is installed.
var (
	mAsyncSent      = obs.NewCounter("sim.async.sent")
	mAsyncDelivered = obs.NewCounter("sim.async.delivered")
	mAsyncDelayed   = obs.NewCounter("sim.async.delayed")
	mAsyncLost      = obs.NewCounter("sim.async.lost")
	mAsyncCollided  = obs.NewCounter("sim.async.collided")
)

// asyncAcct accumulates one execution's message classification in
// plain locals and flushes them to the counters in one batch of atomic
// adds when the execution returns (clean or not), keeping the delivery
// loop free of per-message atomics.
type asyncAcct struct {
	sent, delivered, delayed, lost, collided uint64
}

// flush publishes the execution's totals.
func (a *asyncAcct) flush() {
	mAsyncSent.Add(a.sent)
	mAsyncDelivered.Add(a.delivered)
	mAsyncDelayed.Add(a.delayed)
	mAsyncLost.Add(a.lost)
	mAsyncCollided.Add(a.collided)
}
