package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"flm/internal/obs"
)

// Live observability wiring: the -obs-listen flag (env fallback
// FLM_OBS_LISTEN) starts the stdlib HTTP endpoint from internal/obs
// serving /metrics, /healthz, /progress, and /debug/pprof for the
// duration of a run/all/chaos invocation, and FLM_OBS_INTERVAL
// enables the periodic stderr progress line. Both are opt-in; with
// neither set, startObs returns a nil session without allocating or
// starting a goroutine (guard-tested in obslisten_test.go), preserving
// the engine's zero-cost-when-disabled contract.

// ObsListenEnv is the environment fallback for the -obs-listen flag.
const ObsListenEnv = "FLM_OBS_LISTEN"

// ObsIntervalEnv enables the periodic stderr progress line; its value
// is a time.ParseDuration interval (e.g. "10s").
const ObsIntervalEnv = "FLM_OBS_INTERVAL"

// obsListenTarget resolves the listen address: the flag wins, then
// FLM_OBS_LISTEN, then "" (no endpoint).
func obsListenTarget(flagVal string) string {
	if flagVal != "" {
		return flagVal
	}
	return os.Getenv(ObsListenEnv)
}

// obsSession is one command's live observability: the HTTP endpoint,
// the stderr progress reporter, and (when no -trace file is active) a
// discard tracer that switches the engine onto its instrumented paths
// so counters, spans, and progress tick for the endpoint to serve. A
// nil *obsSession is valid and inert — startObs returns nil whenever
// nothing was requested — so callers always `defer sess.stop()`.
type obsSession struct {
	server       *obs.Server
	stopReporter func()
	restore      func() // uninstalls the discard tracer, nil if a real tracer was already on
}

// startObs starts the requested observability for one command. listen
// is the resolved -obs-listen address ("" = no endpoint); the progress
// reporter is driven purely by FLM_OBS_INTERVAL. With neither set it
// returns (nil, nil) having done no work at all.
//
// The metrics registry and the engine's span emission are gated on one
// switch — an installed tracer — so when the caller did not also pass
// -trace, startObs installs a tracer writing to io.Discard: every span
// is formatted and dropped, but the counters, histograms, and progress
// gauges the endpoint serves all tick. Report output is unaffected
// either way (tracing never touches stdout), so report.txt stays
// byte-identical with observability on or off.
func startObs(listen string) (*obsSession, error) {
	interval := os.Getenv(ObsIntervalEnv)
	if listen == "" && interval == "" {
		return nil, nil
	}
	s := &obsSession{}
	if !obs.Enabled() {
		s.restore = obs.SetTracer(obs.NewTracer(io.Discard))
	}
	obs.ResetProgress()
	if listen != "" {
		srv, err := obs.StartServer(listen)
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("obs-listen: %w", err)
		}
		s.server = srv
		// The notice goes to stderr: stdout carries the report, which
		// must stay byte-identical with observability on or off.
		fmt.Fprintf(os.Stderr, "flm: observability on http://%s (/metrics /healthz /progress /debug/pprof)\n", srv.Addr())
	}
	if interval != "" {
		d, err := time.ParseDuration(interval)
		if err != nil || d <= 0 {
			s.stop()
			return nil, fmt.Errorf("obs: invalid %s=%q (want a positive duration like 10s)", ObsIntervalEnv, interval)
		}
		s.stopReporter = obs.StartProgressReporter(os.Stderr, d)
	}
	return s, nil
}

// stop tears the session down in reverse order: reporter (prints its
// final line), endpoint, then the discard tracer. No-op on nil.
func (s *obsSession) stop() {
	if s == nil {
		return
	}
	if s.stopReporter != nil {
		s.stopReporter()
	}
	if s.server != nil {
		s.server.Close()
	}
	if s.restore != nil {
		s.restore()
	}
}
