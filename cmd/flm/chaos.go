package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"flm"
)

// cmdChaos runs the randomized adversary harness. Exit status encodes
// the verdict: 0 when every adequate configuration stayed green
// (expected violations on inadequate graphs do not fail the run), 1
// when an adequate configuration was violated or a trial faulted.
func cmdChaos(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "master seed; every trial derives from (seed, index)")
	trials := fs.Int("trials", 256, "number of attack schedules to generate and run")
	timeout := fs.Duration("timeout", flm.ChaosDefaultTimeout, "per-trial wall budget")
	workers := fs.Int("workers", 0, "parallel trials (0 = FLM_WORKERS or GOMAXPROCS)")
	noShrink := fs.Bool("noshrink", false, "skip counterexample shrinking")
	async := fs.Bool("async", false, "adversarial asynchrony: every panel trial runs under a seeded delay schedule (and delay rules join the shrinker)")
	deadset := fs.Bool("deadset", false, "initially-dead fault family: seeded dead subsets plus the FLP §4 initdead protocol on both sides of n > 2t")
	tracePath := fs.String("trace", "", "write a JSONL instrumentation trace (spans+metrics) to this file; FLM_TRACE is the env fallback")
	fs.SetOutput(errOut)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(errOut, "chaos: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	stop, err := startTrace(traceTarget(*tracePath), errOut)
	if err != nil {
		fmt.Fprintf(errOut, "chaos: %v\n", err)
		return 1
	}
	defer stop()
	rep, err := flm.RunChaos(context.Background(), flm.ChaosConfig{
		Seed:     *seed,
		Trials:   *trials,
		Timeout:  *timeout,
		Workers:  *workers,
		NoShrink: *noShrink,
		Async:    *async,
		Dead:     *deadset,
	})
	if err != nil {
		fmt.Fprintf(errOut, "chaos: %v\n", err)
		return 2
	}
	fmt.Fprint(out, rep.Render())
	if !rep.OK() {
		return 1
	}
	return 0
}
