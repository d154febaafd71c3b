package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"flm"
	"flm/internal/obs"
)

// TraceEnv is the environment fallback for the -trace flag: when the
// flag is not given, a non-empty FLM_TRACE names the JSONL destination.
// This is the *instrumentation* trace (spans + metrics); the `flm trace`
// subcommand, which prints a protocol traffic trace, is unrelated.
const TraceEnv = "FLM_TRACE"

// traceTarget resolves the trace destination: the -trace flag wins,
// then FLM_TRACE, then "" (tracing off).
func traceTarget(flagVal string) string {
	if flagVal != "" {
		return flagVal
	}
	return os.Getenv(TraceEnv)
}

// startTrace installs a process-wide JSONL tracer writing to path and
// returns a cleanup that flushes the trace (appending the final metrics
// line) and uninstalls the tracer. An empty path is tracing off: the
// cleanup is a no-op and the engine runs its instrumentation-free path.
func startTrace(path string, out io.Writer) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	t := obs.NewTracer(f)
	restore := obs.SetTracer(t)
	return func() {
		restore()
		if err := t.Close(); err != nil {
			fmt.Fprintf(out, "trace: %v\n", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(out, "trace: %v\n", err)
		}
	}, nil
}

// runExperiment runs one registered experiment, under tracing wrapped in
// a "flm.experiment" span that books the run-cache deltas this
// experiment alone produced (runcache.Stats.Since), so consecutive
// experiments in `flm all` don't bleed counters into each other's
// attribution.
func runExperiment(e flm.Experiment) (*flm.ExperimentResult, error) {
	if !obs.Enabled() {
		return e.Run()
	}
	runBefore := flm.RunCacheStats()
	obs.SetProgressPhase(e.ID)
	defer obs.SetProgressPhase("")
	_, span := obs.StartSpan(context.Background(), "flm.experiment",
		obs.Str("id", e.ID), obs.Str("name", e.Name))
	res, err := e.Run()
	rc := flm.RunCacheStats().Since(runBefore)
	span.SetAttrs(
		obs.Int64("runcache_hits", int64(rc.Hits)),
		obs.Int64("runcache_misses", int64(rc.Misses)),
		obs.Int64("runcache_waits", int64(rc.Waits)),
		obs.Int64("runcache_disk_hits", int64(rc.DiskHits)),
		obs.Int64("runcache_evictions", int64(rc.Evictions)),
		obs.F64("runcache_hit_rate", rc.HitRate()))
	if err != nil {
		span.SetAttrs(obs.Str("error", err.Error()))
	}
	span.End()
	return res, err
}
