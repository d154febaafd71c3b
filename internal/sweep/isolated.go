// Fault-isolated sweeps. Map assumes trial functions are well
// behaved: a panicking trial kills the process and an infinite loop hangs
// the pool forever. Isolated drops both assumptions — it is the execution
// mode for trials wrapping *arbitrary* user-supplied devices (the chaos
// harness, attack panels over third-party protocols): every trial runs
// under a watchdog that converts panics into structured *TrialFault
// errors and enforces a per-trial wall-clock budget, and a faulty trial
// never prevents the remaining trials from running.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"flm/internal/obs"
)

// TrialFault is the structured failure of one isolated trial: a recovered
// panic, an exceeded time budget, or an ordinary error annotated with its
// trial index. Exactly one of Panic/Timeout/Err describes the cause.
type TrialFault struct {
	Trial   int           // the trial index the fault belongs to
	Panic   any           // recovered panic value (nil unless the trial panicked)
	Stack   []byte        // stack at the recovery point (panics only)
	Timeout bool          // the trial exceeded its wall-clock budget
	Budget  time.Duration // the budget that was exceeded (timeouts only)
	Err     error         // the trial's own error (wrapped, reachable via Unwrap)
}

func (f *TrialFault) Error() string {
	switch {
	case f.Timeout:
		return fmt.Sprintf("sweep: trial %d exceeded its %v budget (abandoned)", f.Trial, f.Budget)
	case f.Panic != nil:
		return fmt.Sprintf("sweep: trial %d panicked: %v", f.Trial, f.Panic)
	case f.Err != nil:
		return fmt.Sprintf("sweep: trial %d failed: %v", f.Trial, f.Err)
	default:
		return fmt.Sprintf("sweep: trial %d failed", f.Trial)
	}
}

// Unwrap exposes the trial's own error (or the panic value when it was
// itself an error, as sim.MustExecute's *ExecError panics are), so
// errors.As can reach sim.DeviceFault / sim.ExecError causes through the
// TrialFault wrapper.
func (f *TrialFault) Unwrap() error {
	if f.Err != nil {
		return f.Err
	}
	if err, ok := f.Panic.(error); ok {
		return err
	}
	return nil
}

// Opts configures an isolated sweep.
type Opts struct {
	// Workers bounds the fan-out; 0 means Workers() (the FLM_WORKERS /
	// GOMAXPROCS resolution order).
	Workers int
	// Timeout is the per-trial wall-clock budget; 0 means no budget.
	// A timed-out trial's goroutine cannot be killed (Go has no
	// preemptive cancellation) — it is abandoned: the pool reports the
	// fault, stops waiting, and moves on, while the stray goroutine
	// keeps running until it finishes on its own or the process exits.
	// Timed-out trials therefore must not hold locks or mutate state
	// shared with later trials.
	Timeout time.Duration
}

// Isolated runs fn(i) for every i in [0, n) with per-trial fault
// isolation and returns the results plus a per-trial error slice
// (errs[i] is nil exactly when trial i succeeded). Unlike Map, a failing
// trial does NOT cancel the sweep: every trial runs (unless ctx is
// cancelled, which stops new trials and marks the never-started ones
// with a ctx-wrapped TrialFault). Panics become *TrialFault with the
// recovered value and stack; budget overruns become *TrialFault with
// Timeout set; ordinary errors are wrapped in *TrialFault for uniform
// attribution. FirstError recovers Map's lowest-failing-index semantics
// from the error slice.
func Isolated[T any](ctx context.Context, n int, o Opts, fn func(i int) (T, error)) ([]T, []error) {
	results := make([]T, n)
	errs := make([]error, n)
	if n == 0 {
		return results, errs
	}
	workers := o.Workers
	if workers <= 0 {
		workers = Workers()
	}
	workers = min(workers, n)
	var sweepSpan *obs.Span
	if obs.Enabled() {
		ctx, sweepSpan = obs.StartSpan(ctx, "sweep.isolated",
			obs.Int("trials", n), obs.Int("workers", workers),
			obs.Int64("timeout_us", int64(o.Timeout/time.Microsecond)))
		mSweeps.Inc()
	}
	started := pool(ctx, n, workers, func() bool { return ctx.Err() != nil }, func(i int) bool {
		results[i], errs[i] = runIsolated(ctx, i, o.Timeout, fn)
		return errs[i] != nil
	})
	for i := started; i < n; i++ {
		errs[i] = &TrialFault{Trial: i, Err: fmt.Errorf("not started: %w", ctx.Err())}
	}
	if sweepSpan != nil {
		sweepSpan.SetAttrs(obs.Int("faults", FaultCount(errs)))
	}
	sweepSpan.End()
	return results, errs
}

// runIsolated executes one trial in its own goroutine so the caller can
// abandon it on timeout, and recovers any panic into a *TrialFault.
func runIsolated[T any](ctx context.Context, i int, budget time.Duration, fn func(i int) (T, error)) (T, error) {
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1) // buffered: an abandoned trial must not block on send
	go func() {
		defer func() {
			if r := recover(); r != nil {
				var zero T
				ch <- outcome{zero, &TrialFault{Trial: i, Panic: r, Stack: debug.Stack()}}
			}
		}()
		v, err := fn(i)
		if err != nil {
			var tf *TrialFault
			if !errors.As(err, &tf) {
				err = &TrialFault{Trial: i, Err: err}
			}
			ch <- outcome{v, err}
			return
		}
		ch <- outcome{v, nil}
	}()

	var timeout <-chan time.Time // nil without a budget: never fires
	if budget > 0 {
		timer := time.NewTimer(budget)
		defer timer.Stop()
		timeout = timer.C
	}
	var zero T
	select {
	case o := <-ch:
		return o.v, o.err
	case <-timeout:
		return zero, &TrialFault{Trial: i, Timeout: true, Budget: budget}
	case <-ctx.Done():
		return zero, &TrialFault{Trial: i, Err: fmt.Errorf("abandoned: %w", ctx.Err())}
	}
}

// FirstError returns the lowest trial index with a non-nil error and that
// error, restoring Map's sequential-equivalent error semantics on an
// Isolated result; it returns (-1, nil) when every trial succeeded.
func FirstError(errs []error) (int, error) {
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}

// FaultCount reports how many trials failed.
func FaultCount(errs []error) int {
	c := 0
	for _, err := range errs {
		if err != nil {
			c++
		}
	}
	return c
}
