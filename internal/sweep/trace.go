package sweep

import (
	"context"
	"runtime/pprof"
	"strconv"
	"time"

	"flm/internal/obs"
)

// Observability for the sweep pool. Both engines (Map and Isolated)
// branch on obs.Enabled() once per sweep; the untraced paths run the
// exact pre-instrumentation code. Per-worker spans record task counts,
// busy time, and (for Isolated) fault counts; per-trial durations feed
// a shared histogram, and utilization falls out of busy time over span
// wall time in `flm stats`.
var (
	mSweeps      = obs.NewCounter("sweep.sweeps")
	mSweepTrials = obs.NewCounter("sweep.trials")
	mTrialFaults = obs.NewCounter("sweep.trial.faults")
	hTrialDur    = obs.NewHistogram("sweep.trial.dur_us")
)

// workerObs accumulates one worker's contribution to a traced sweep.
// Methods are called by the owning worker goroutine only.
type workerObs struct {
	worker int
	trials int
	faults int
	busy   time.Duration
}

// begin marks one trial claimed (live progress) and returns its start
// instant for record.
//
//flmlint:allow flmdeterminism wall clock feeds span timing and progress only, never a result
//flmlint:allow flmobscost called only on the traced path, where wo is non-nil
func (wo *workerObs) begin() time.Time {
	obs.ProgressTrialStart()
	return time.Now()
}

// record books one finished trial.
//
//flmlint:allow flmobscost called only on the traced path, where wo is non-nil
func (wo *workerObs) record(d time.Duration) {
	wo.trials++
	wo.busy += d
	mSweepTrials.Inc()
	hTrialDur.Observe(uint64(d / time.Microsecond))
	obs.ProgressTrialDone(wo.worker, d)
}

// fault books one failed trial.
//
//flmlint:allow flmobscost called only on the traced path, where wo is non-nil
func (wo *workerObs) fault() {
	wo.faults++
	mTrialFaults.Inc()
	obs.ProgressTrialFault(wo.worker)
}

// finish closes the worker's span with its aggregate attributes. The
// idle time (span wall time minus busy time) is the worker's queue wait:
// time spent blocked on claiming work rather than running trials.
//
//flmlint:allow flmobscost called only on the traced path, where wo is non-nil
//flmlint:allow flmdeterminism wall clock feeds span timing only, never a result
func (wo *workerObs) finish(span *obs.Span, started time.Time) {
	idle := time.Since(started) - wo.busy
	if idle < 0 {
		idle = 0
	}
	span.SetAttrs(
		obs.Int("trials", wo.trials),
		obs.Int("faults", wo.faults),
		obs.Int64("busy_us", int64(wo.busy/time.Microsecond)),
		obs.Int64("idle_us", int64(idle/time.Microsecond)))
	span.End()
}

// ctxHasLabels reports whether ctx carries any pprof labels.
func ctxHasLabels(ctx context.Context) bool {
	has := false
	pprof.ForLabels(ctx, func(string, string) bool {
		has = true
		return false
	})
	return has
}

// doLabeled runs f under the context's pprof label set extended with
// this worker's index, so CPU profile samples of a labeled sweep (e.g.
// `flm chaos` tagging the harness) attribute to both the caller's label
// and the worker. With an unlabeled context it runs f directly —
// pprof.Do would replace the goroutine's inherited labels (the tag a
// worker picks up from its spawner) with an empty set, which is exactly
// the attribution we must not lose.
func doLabeled(ctx context.Context, w int, f func()) {
	if !ctxHasLabels(ctx) {
		f()
		return
	}
	pprof.Do(ctx, pprof.Labels("sweep_worker", strconv.Itoa(w)), func(context.Context) { f() })
}
