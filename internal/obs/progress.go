package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Live progress telemetry for long runs. The sweep engines (Map,
// Isolated, Grouped) and the chaos harness publish trial totals,
// completions, faults, in-flight worker counts, and per-worker busy
// time here whenever observability is on; three consumers read it back:
//
//   - the /progress endpoint of the live HTTP listener (serve.go),
//   - the periodic stderr progress line (StartProgressReporter), and
//   - the progress.* gauges in the metrics registry, which the /metrics
//     exposition and the trace's final metrics line both carry.
//
// Publishing follows the tracer's own rule: the engine only calls the
// Progress* functions on its obs-guarded paths, so a run with no
// observability requested executes the exact pre-instrumentation code.
// The total/done/busy gauges are updated live (a handful of atomic ops
// per trial, negligible next to the span write the same path performs);
// the derived gauges — queue depth, elapsed, ETA — are refreshed only
// when a consumer snapshots, so a plain -trace run's final metrics line
// stays deterministic (they remain zero unless something actually
// polled the clock-derived values).
var (
	gProgTotal  = NewGauge("progress.trials.total")
	gProgDone   = NewGauge("progress.trials.done")
	gProgFaults = NewGauge("progress.trials.faults")
	gProgBusy   = NewGauge("progress.workers.busy")
	gProgQueue  = NewGauge("progress.queue.depth")
	gProgElapse = NewGauge("progress.elapsed_us")
	gProgETA    = NewGauge("progress.eta_us")
)

// progWorker accumulates one worker index's cumulative contribution
// across every published sweep of the process.
type progWorker struct {
	trials int64
	faults int64
	busyUS int64
}

// prog is the process-wide progress state behind the atomically-updated
// gauges: the phase label, the monotonic start instant, and the
// per-worker table. One mutex suffices — publishers touch it once per
// trial, which is far cheaper than the tracer write the same traced
// path already performs.
var prog struct {
	mu      sync.Mutex
	phase   string
	start   time.Time
	started bool
	workers map[int]*progWorker
}

// progStarted flags whether the monotonic clock anchor is set, readable
// without the mutex on the hot path.
var progStarted atomic.Bool

// SetProgressPhase labels the work in flight ("E17", "chaos seed=1");
// the label travels to /progress and the stderr progress line. An empty
// phase clears it.
func SetProgressPhase(phase string) {
	prog.mu.Lock()
	prog.phase = phase
	prog.mu.Unlock()
}

// ensureProgressClock anchors the monotonic elapsed/ETA clock at the
// first published sweep.
func ensureProgressClock() {
	if progStarted.Load() {
		return
	}
	prog.mu.Lock()
	if !prog.started {
		prog.start = time.Now()
		prog.started = true
		progStarted.Store(true)
	}
	prog.mu.Unlock()
}

// SweepTicket tracks one sweep's contribution to the trial totals so an
// aborted sweep (first-error cancellation) can retire the trials that
// never ran instead of leaving the completion ratio stuck short of 100%.
type SweepTicket struct {
	n          int64
	doneBefore int64
}

// ProgressSweepStart books n upcoming trials and returns the ticket the
// sweep must Finish when it returns.
func ProgressSweepStart(n int) SweepTicket {
	ensureProgressClock()
	gProgTotal.Add(int64(n))
	return SweepTicket{n: int64(n), doneBefore: gProgDone.Value()}
}

// Finish retires the ticket: any of its trials that never completed
// (cancellation, first-error abort) are subtracted from the total so
// done/total converges to 1 for finished work.
func (t SweepTicket) Finish() {
	finished := gProgDone.Value() - t.doneBefore
	if finished < t.n {
		gProgTotal.Add(finished - t.n)
	}
}

// ProgressTrialStart marks one trial claimed by a worker (in flight).
func ProgressTrialStart() { gProgBusy.Add(1) }

// progWorkerFor returns worker's row, creating it; caller holds prog.mu.
func progWorkerFor(worker int) *progWorker {
	if prog.workers == nil {
		prog.workers = make(map[int]*progWorker)
	}
	w := prog.workers[worker]
	if w == nil {
		w = &progWorker{}
		prog.workers[worker] = w
	}
	return w
}

// ProgressTrialDone marks one trial finished by the given worker after
// running for d.
func ProgressTrialDone(worker int, d time.Duration) {
	gProgBusy.Add(-1)
	gProgDone.Add(1)
	prog.mu.Lock()
	w := progWorkerFor(worker)
	w.trials++
	w.busyUS += int64(d / time.Microsecond)
	prog.mu.Unlock()
}

// ProgressTrialFault books one failed trial against the given worker
// (in addition to its ProgressTrialDone, which always fires).
func ProgressTrialFault(worker int) {
	gProgFaults.Add(1)
	prog.mu.Lock()
	progWorkerFor(worker).faults++
	prog.mu.Unlock()
}

// WorkerProgress is one worker's cumulative published activity.
type WorkerProgress struct {
	Worker int   `json:"worker"`
	Trials int64 `json:"trials"`
	Faults int64 `json:"faults,omitempty"`
	BusyUS int64 `json:"busy_us"`
	IdleUS int64 `json:"idle_us"`
}

// ProgressInfo is a point-in-time view of the published progress state.
type ProgressInfo struct {
	Phase     string           `json:"phase,omitempty"`
	Total     int64            `json:"trials_total"`
	Done      int64            `json:"trials_done"`
	Faults    int64            `json:"trials_faulted"`
	Busy      int64            `json:"workers_busy"`
	Queue     int64            `json:"queue_depth"`
	ElapsedUS int64            `json:"elapsed_us"`
	ETAUS     int64            `json:"eta_us"`
	Workers   []WorkerProgress `json:"workers,omitempty"`
}

// Percent returns the completion ratio in percent (0 with no trials).
func (p ProgressInfo) Percent() float64 {
	if p.Total <= 0 {
		return 0
	}
	return 100 * float64(p.Done) / float64(p.Total)
}

// ProgressSnapshot reads the published state and refreshes the derived
// gauges (queue depth, elapsed, ETA) from the monotonic clock. The ETA
// is the linear extrapolation elapsed*(total-done)/done — exact for
// uniform trials, a live order-of-magnitude answer otherwise.
func ProgressSnapshot() ProgressInfo {
	info := ProgressInfo{
		Total:  gProgTotal.Value(),
		Done:   gProgDone.Value(),
		Faults: gProgFaults.Value(),
		Busy:   gProgBusy.Value(),
	}
	info.Queue = info.Total - info.Done - info.Busy
	if info.Queue < 0 {
		info.Queue = 0
	}
	prog.mu.Lock()
	info.Phase = prog.phase
	if prog.started {
		info.ElapsedUS = int64(time.Since(prog.start) / time.Microsecond)
	}
	for idx, w := range prog.workers {
		wp := WorkerProgress{Worker: idx, Trials: w.trials, Faults: w.faults, BusyUS: w.busyUS}
		if idle := info.ElapsedUS - w.busyUS; idle > 0 {
			wp.IdleUS = idle
		}
		info.Workers = append(info.Workers, wp)
	}
	prog.mu.Unlock()
	sort.Slice(info.Workers, func(i, j int) bool { return info.Workers[i].Worker < info.Workers[j].Worker })
	if info.Done > 0 && info.Total > info.Done {
		info.ETAUS = int64(float64(info.ElapsedUS) * float64(info.Total-info.Done) / float64(info.Done))
	}
	gProgQueue.Set(info.Queue)
	gProgElapse.Set(info.ElapsedUS)
	gProgETA.Set(info.ETAUS)
	return info
}

// ResetProgress zeroes the published state (gauges, clock anchor, phase,
// worker table). The CLI calls it at observability startup; tests use it
// for isolation.
func ResetProgress() {
	gProgTotal.Set(0)
	gProgDone.Set(0)
	gProgFaults.Set(0)
	gProgBusy.Set(0)
	gProgQueue.Set(0)
	gProgElapse.Set(0)
	gProgETA.Set(0)
	prog.mu.Lock()
	prog.phase = ""
	prog.started = false
	prog.workers = nil
	prog.mu.Unlock()
	progStarted.Store(false)
}

// Line renders the one-line human form used by the stderr reporter:
//
//	flm progress: [E17] 1234/5678 trials (21.7%) busy=8 queue=512 elapsed=12s eta=3m2s
func (p ProgressInfo) Line() string {
	phase := ""
	if p.Phase != "" {
		phase = "[" + p.Phase + "] "
	}
	line := fmt.Sprintf("flm progress: %s%d/%d trials (%.1f%%) busy=%d queue=%d elapsed=%s",
		phase, p.Done, p.Total, p.Percent(), p.Busy, p.Queue,
		(time.Duration(p.ElapsedUS) * time.Microsecond).Round(time.Second))
	if p.ETAUS > 0 {
		line += fmt.Sprintf(" eta=%s", (time.Duration(p.ETAUS) * time.Microsecond).Round(time.Second))
	}
	if p.Faults > 0 {
		line += fmt.Sprintf(" faults=%d", p.Faults)
	}
	return line
}

// StartProgressReporter prints the progress line to w every interval
// until the returned stop function is called (which prints one final
// line so short runs still report). The reporter goroutine exists only
// when the caller asked for periodic progress (FLM_OBS_INTERVAL in the
// CLI); with no reporter running this file costs nothing.
func StartProgressReporter(w io.Writer, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fmt.Fprintln(w, ProgressSnapshot().Line())
			case <-done:
				fmt.Fprintln(w, ProgressSnapshot().Line())
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}
