package sweep

import (
	"time"

	"flm/internal/obs"
)

// Observability for the sweep pool. Map and Isolated share one worker
// loop (pool), which branches on obs.Enabled() once per worker; untraced,
// it pays a nil check per trial. Per-worker spans record task counts,
// busy time, and fault counts; per-trial durations feed a shared
// histogram, and utilization falls out of busy time over span wall time
// in `flm stats`.
var (
	mSweeps      = obs.NewCounter("sweep.sweeps")
	mSweepTrials = obs.NewCounter("sweep.trials")
	mTrialFaults = obs.NewCounter("sweep.trial.faults")
	hTrialDur    = obs.NewHistogram("sweep.trial.dur_us")
)

// workerObs accumulates one worker's contribution to a traced sweep.
// Methods are called by the owning worker goroutine only.
type workerObs struct {
	trials int
	faults int
	busy   time.Duration
}

// begin returns one trial's start instant for record.
//
//flmlint:allow flmdeterminism wall clock feeds span timing only, never a result
func (wo *workerObs) begin() time.Time {
	return time.Now()
}

// record books one finished trial.
func (wo *workerObs) record(d time.Duration) {
	wo.trials++
	wo.busy += d
	mSweepTrials.Inc()
	hTrialDur.Observe(uint64(d / time.Microsecond))
}

// fault books one failed trial.
func (wo *workerObs) fault() {
	wo.faults++
	mTrialFaults.Inc()
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
