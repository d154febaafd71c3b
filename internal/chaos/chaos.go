// Package chaos is the randomized adversary harness for the FLM85
// reproduction. The paper's Fault axiom grants faulty nodes *arbitrary*
// behavior; this package takes that literally: it composes the
// internal/adversary strategies (crash, omission, noise, equivocation,
// replay, mirroring) into seeded, deterministic attack schedules, fires
// them at the protocol panel — EIG, phase king, Turpin-Coan, DLPSW
// approximate agreement, and clock synchronization — across adequate AND
// inadequate graphs, and checks each protocol's correctness conditions
// per run.
//
// The expectations are exactly the paper's: on adequate configurations
// (n >= 3f+1, or 4f+1 for phase king) every schedule must come back
// green; on inadequate ones, violations are *findings* — concrete
// counterexamples the harness then shrinks to a minimal set of faulty
// actions. A violation on an adequate configuration, or an engine fault
// (panic, timeout), is an unexpected failure and fails the run.
//
// Every schedule is a pure function of (master seed, trial index), so a
// printed seed reproduces its violation bit for bit, on any worker
// count.
package chaos

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"flm/internal/obs"
	"flm/internal/sweep"
)

// Config parameterizes one chaos run.
type Config struct {
	Seed     int64         // master seed; every trial derives from (Seed, index)
	Trials   int           // number of schedules to generate and run
	Timeout  time.Duration // per-trial wall budget (0 = DefaultTimeout)
	Workers  int           // sweep fan-out (0 = FLM_WORKERS / GOMAXPROCS)
	NoShrink bool          // skip counterexample shrinking
	Async    bool          // adversarial delay schedules (see GenOpts.Async)
	Dead     bool          // initially-dead faults + initdead protocol (see GenOpts.Dead)
}

// Pinned smoke parameters. The CI chaos smoke job, the E18/E20
// experiments, and the pinned regression tests in this package must all
// use these exact values — internal/eval's ci_test cross-checks the
// workflow file against them so a drift can never be silent.
const (
	SmokeSeed   int64 = 1
	SmokeTrials       = 64

	AsyncSmokeSeed   int64 = 7
	AsyncSmokeTrials       = 48
)

// DefaultTimeout bounds one trial's wall time; generous next to the
// microseconds a healthy trial takes, tight enough that a hung device
// cannot stall a CI job.
const DefaultTimeout = 10 * time.Second

// Finding is one condition violation (or engine fault) with everything
// needed to reproduce it.
type Finding struct {
	Trial     int
	Schedule  Schedule
	Violation string    // the violated condition (or engine fault text)
	Expected  bool      // true when the configuration is inadequate: the paper predicts this
	Shrunk    *Schedule // minimal violating schedule (violations only, when shrinking ran)
}

// Report aggregates a chaos run.
type Report struct {
	Seed       int64
	Trials     int
	Async      bool // the run drew adversarial delay schedules
	Dead       bool // the run drew initially-dead faults + initdead trials
	Green      int
	Expected   []Finding // violations on inadequate configurations
	Unexpected []Finding // violations on adequate configurations + engine faults
}

// OK reports whether the run matched the paper's predictions: adequate
// configurations all green, no engine faults. Expected findings on
// inadequate graphs do not fail a run — they are its purpose.
func (r *Report) OK() bool { return len(r.Unexpected) == 0 }

// Run generates cfg.Trials schedules from cfg.Seed, executes them with
// full fault isolation (a panicking or hanging trial is contained and
// reported, never fatal), checks each protocol's conditions, and shrinks
// every violating schedule to a minimal counterexample.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("chaos: need a positive trial count, got %d", cfg.Trials)
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = DefaultTimeout
	}
	traced := obs.Enabled()
	if traced {
		var runSpan *obs.Span
		ctx, runSpan = obs.StartSpan(ctx, "chaos.run",
			obs.Int64("seed", cfg.Seed), obs.Int("trials", cfg.Trials))
		defer runSpan.End()
	}
	schedules := make([]Schedule, cfg.Trials)
	for i := range schedules {
		schedules[i] = NewScheduleWith(cfg.Seed, i, GenOpts{Async: cfg.Async, Dead: cfg.Dead})
	}
	outcomes, errs := sweep.Isolated(ctx, cfg.Trials, sweep.Opts{Workers: cfg.Workers, Timeout: timeout},
		func(i int) (Outcome, error) {
			// Condition violations are data, not sweep errors: only
			// panics/timeouts surface through the error slice.
			return RunSchedule(schedules[i]), nil
		})

	rep := &Report{Seed: cfg.Seed, Trials: cfg.Trials, Async: cfg.Async, Dead: cfg.Dead}
	for i := 0; i < cfg.Trials; i++ {
		s := schedules[i]
		outcome := "green"
		detail := ""
		shrunkActions := -1
		switch {
		case errs[i] != nil:
			outcome, detail = "fault", errs[i].Error()
			rep.Unexpected = append(rep.Unexpected, Finding{
				Trial: i, Schedule: s, Violation: errs[i].Error(),
			})
		case outcomes[i].EngineErr != nil:
			outcome, detail = "fault", "engine: "+outcomes[i].EngineErr.Error()
			rep.Unexpected = append(rep.Unexpected, Finding{
				Trial: i, Schedule: s, Violation: "engine: " + outcomes[i].EngineErr.Error(),
			})
		case outcomes[i].Violation != nil:
			detail = outcomes[i].Violation.Error()
			f := Finding{Trial: i, Schedule: s, Violation: detail, Expected: !s.Adequate}
			if f.Expected {
				outcome = "violation"
			} else {
				outcome = "unexpected-violation"
			}
			if !cfg.NoShrink {
				if shrunk, ok := shrinkTraced(ctx, i, s, traced); ok {
					f.Shrunk = &shrunk
					shrunkActions = len(shrunk.Actions)
				}
			}
			if f.Expected {
				rep.Expected = append(rep.Expected, f)
			} else {
				rep.Unexpected = append(rep.Unexpected, f)
			}
		default:
			rep.Green++
		}
		if traced {
			recordTrial(ctx, i, s, outcome, detail, shrunkActions)
		}
	}
	return rep, nil
}

// shrinkTraced wraps Shrink in a "chaos.shrink" span recording how many
// candidate schedules the minimizer re-executed and the before/after
// action counts; untraced it is Shrink verbatim.
//
//flmlint:allow flmobscost the traced param is obs.Enabled() and gates the span path
func shrinkTraced(ctx context.Context, trial int, s Schedule, traced bool) (Schedule, bool) {
	if !traced {
		return Shrink(s)
	}
	_, span := obs.StartSpan(ctx, "chaos.shrink",
		obs.Int("trial", trial), obs.Int("actions", len(s.Actions)))
	before := mShrinkEvals.Value()
	shrunk, ok := Shrink(s)
	span.SetAttrs(obs.Int64("evals", int64(mShrinkEvals.Value()-before)))
	if ok {
		span.SetAttrs(obs.Int("shrunk_actions", len(shrunk.Actions)))
	}
	span.End()
	return shrunk, ok
}

// recordTrial emits one "chaos.trial" event carrying the trial's attack
// schedule and its classification, and ticks the outcome counters.
//
//flmlint:allow flmobscost called only under `if traced` in the trial loop
func recordTrial(ctx context.Context, i int, s Schedule, outcome, detail string, shrunkActions int) {
	mTrials.Inc()
	switch outcome {
	case "green":
		mGreen.Inc()
	case "fault":
		mEngineFaults.Inc()
	default:
		mViolations.Inc()
	}
	attrs := []obs.Attr{
		obs.Int("trial", i),
		obs.Str("protocol", s.Protocol),
		obs.Int("n", s.N),
		obs.Int("f", s.F),
		obs.Bool("adequate", s.Adequate),
		obs.Str("schedule", s.Describe()),
		obs.Str("outcome", outcome),
	}
	if detail != "" {
		attrs = append(attrs, obs.Str("violation", detail))
	}
	if shrunkActions >= 0 {
		attrs = append(attrs, obs.Int("shrunk_actions", shrunkActions))
	}
	obs.Event(ctx, "chaos.trial", attrs...)
}

// Describe renders a schedule on one line. Synchronous schedules keep
// the historical format; a delay schedule appends its rule count and
// worst extra delay (the full rule list is data, not display).
func (s Schedule) Describe() string {
	acts := make([]string, len(s.Actions))
	for i, a := range s.Actions {
		acts[i] = a.Node + ":" + a.Strategy
	}
	adequacy := "inadequate"
	if s.Adequate {
		adequacy = "adequate"
	}
	desc := fmt.Sprintf("%s on K%d f=%d (%s) faults=[%s]",
		s.Protocol, s.N, s.F, adequacy, strings.Join(acts, ","))
	if len(s.Delays) > 0 {
		worst := 0
		for _, r := range s.Delays {
			if r.Extra > worst {
				worst = r.Extra
			}
		}
		desc += fmt.Sprintf(" delays=[%d rules, max +%d]", len(s.Delays), worst)
	}
	return desc
}

// modeFlags renders the CLI flags that reproduce this report's
// generator mode ("" for the classic synchronous panel).
func (r *Report) modeFlags() string {
	flags := ""
	if r.Async {
		flags += " -async"
	}
	if r.Dead {
		flags += " -deadset"
	}
	return flags
}

// Render formats the report for the CLI and the E18/E20 experiments.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos:%s seed=%d trials=%d green=%d expected-violations=%d unexpected=%d\n",
		r.modeFlags(), r.Seed, r.Trials, r.Green, len(r.Expected), len(r.Unexpected))
	byProto := map[string]int{}
	for _, f := range r.Expected {
		byProto[f.Schedule.Protocol]++
	}
	if len(byProto) > 0 {
		protos := make([]string, 0, len(byProto))
		for p := range byProto {
			protos = append(protos, p)
		}
		sort.Strings(protos)
		parts := make([]string, len(protos))
		for i, p := range protos {
			parts[i] = fmt.Sprintf("%s=%d", p, byProto[p])
		}
		fmt.Fprintf(&b, "violations by protocol: %s\n", strings.Join(parts, " "))
	}
	for _, f := range r.Expected {
		fmt.Fprintf(&b, "  [expected] trial %d: %s\n             %s\n", f.Trial, f.Schedule.Describe(), f.Violation)
		if f.Shrunk != nil {
			if len(f.Schedule.Delays) > 0 {
				fmt.Fprintf(&b, "             shrunk to %d faulty action(s) + %d delay rule(s): %s\n",
					len(f.Shrunk.Actions), len(f.Shrunk.Delays), f.Shrunk.Describe())
			} else {
				fmt.Fprintf(&b, "             shrunk to %d faulty action(s): %s\n",
					len(f.Shrunk.Actions), f.Shrunk.Describe())
			}
		}
		fmt.Fprintf(&b, "             reproduce: flm chaos%s -seed %d -trials %d  (trial %d)\n",
			r.modeFlags(), r.Seed, r.Trials, f.Trial)
	}
	for _, f := range r.Unexpected {
		fmt.Fprintf(&b, "  [UNEXPECTED] trial %d: %s\n               %s\n", f.Trial, f.Schedule.Describe(), f.Violation)
	}
	if r.OK() {
		fmt.Fprintf(&b, "all adequate configurations green; paper's predictions hold\n")
	} else {
		fmt.Fprintf(&b, "FAIL: %d unexpected failure(s)\n", len(r.Unexpected))
	}
	return b.String()
}
