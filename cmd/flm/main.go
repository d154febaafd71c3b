// Command flm runs the FLM85 reproduction experiments.
//
// Usage:
//
//	flm list                 list registered experiments
//	flm run E1 [E2 ...]      run specific experiments and print results
//	flm all [-o out.txt]     run everything (optionally tee to a file)
//	flm adequacy <n> <f>     adequacy report for K_n with f faults
//	flm prove <device>       run the hexagon argument against a device
//	                         (majority|eig|phase-king)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"flm"
)

func main() {
	args := os.Args[1:]
	// The disk tier of the run cache is a per-process opt-in (the
	// library default keeps `go test` and embedders hermetic); the CLI
	// is where cross-process reuse pays, so it installs the tier here
	// for every command. FLM_CACHE_DIR overrides the location;
	// FLM_CACHE_DIR=off disables. Installing in main rather than run
	// keeps the command tests hermetic too.
	if len(args) > 0 {
		if dir := flm.DefaultCacheDir(); dir != "" {
			if _, err := flm.SetRunCacheDir(dir); err != nil {
				fmt.Fprintf(os.Stderr, "flm: disk run cache unavailable: %v\n", err)
			}
		}
	}
	os.Exit(run(args, os.Stdout, os.Stderr))
}

// run executes one command. Its output goes to out, and every failure
// and usage error to errOut, so a caller that discards the output still
// sees why a command failed.
func run(args []string, out, errOut io.Writer) int {
	if len(args) == 0 {
		usage(errOut)
		return 2
	}
	switch args[0] {
	case "list":
		return cmdList(out)
	case "run":
		return cmdRun(args[1:], out, errOut)
	case "all":
		return cmdAll(args[1:], out, errOut)
	case "adequacy":
		return cmdAdequacy(args[1:], out, errOut)
	case "prove":
		return cmdProve(args[1:], out, errOut)
	case "dot":
		return cmdDot(args[1:], out, errOut)
	case "trace":
		return cmdTrace(args[1:], out, errOut)
	case "chaos":
		return cmdChaos(args[1:], out, errOut)
	case "stats":
		return cmdStats(args[1:], out, errOut)
	case "help", "-h", "--help":
		usage(out)
		return 0
	default:
		fmt.Fprintf(errOut, "unknown command %q\n", args[0])
		usage(errOut)
		return 2
	}
}

func usage(out io.Writer) {
	fmt.Fprintln(out, `flm — Fischer-Lynch-Merritt 1985 reproduction harness

commands:
  list                 list registered experiments (E1-E20)
  run <id> [<id>...]   run specific experiments
  all [-o file]        run every experiment (tee to file with -o)
  adequacy <n> <f>     adequacy report for the complete graph K_n
  prove <device>       defeat a device with the hexagon argument
  dot <cover> [m]      Graphviz DOT of a covering (hex|diamond|ring)
  trace <device>       traffic trace: the round-by-round protocol traffic
                       of the hexagon covering run (unrelated to -trace)
  chaos [-seed n] [-trials n] [-timeout d] [-workers n] [-noshrink]
        [-async] [-deadset]
                       fire seeded randomized adversaries at the protocol
                       panel; violations on inadequate graphs are expected
                       and shrunk to minimal counterexamples; -async adds
                       seeded per-message delay schedules (shrunk too),
                       -deadset adds initially-dead subsets and the FLP
                       Section 4 initdead protocol across n > 2t
  stats [-mindiskrate pct] <trace.jsonl>
                       summarize an instrumentation trace: cache hit
                       rates (memory + disk tiers), sweep worker
                       utilization, chain structure, chaos outcomes,
                       slowest spans; -mindiskrate gates on the disk
                       tier serving at least that percent of run-cache
                       L1 misses (exit 3 below it)
  stats -diff [-threshold pct] [-notiming] <old.jsonl> <new.jsonl>
                       behavioral regression gate: fold both traces and
                       exit 3 when counters, span counts, span
                       wall-time shares, the run-cache served-rate, or
                       message/byte traffic drift beyond the threshold;
                       -notiming skips the wall-time family for
                       cross-machine comparisons

The run, all, prove, and chaos commands accept a global
-trace <file.jsonl> flag (env fallback FLM_TRACE) that records every
span, event, and metric of the invocation as JSON Lines; inspect the
result with flm stats. Tracing off costs nothing: the engine runs its
instrumentation-free path.

Run cache: memoized executions live in a bounded in-memory tier
(FLM_CACHE_BUDGET, default 256MiB) plus an on-disk content-addressed
store shared across processes (FLM_CACHE_DIR, default the user cache
dir; set to "off" to disable). Every command uses the disk tier.
FLM_RUNCACHE=off disables caching entirely.`)
}

func cmdDot(args []string, out, errOut io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(errOut, "dot: usage: flm dot hex|diamond|ring [m]")
		return 2
	}
	var cover *flm.Cover
	switch args[0] {
	case "hex":
		cover = flm.HexCover()
	case "diamond":
		cover = flm.DiamondCover()
	case "ring":
		m := 12
		if len(args) > 1 {
			parsed, err := strconv.Atoi(args[1])
			if err != nil || parsed < 3 || parsed%3 != 0 {
				fmt.Fprintln(errOut, "dot: ring size must be a positive multiple of 3")
				return 2
			}
			m = parsed
		}
		cover = flm.RingCoverTriangle(m)
	default:
		fmt.Fprintf(errOut, "dot: unknown cover %q (have: hex, diamond, ring)\n", args[0])
		return 2
	}
	fmt.Fprint(out, cover.DOT(args[0]))
	return 0
}

func cmdTrace(args []string, out, errOut io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(errOut, "trace: usage: flm trace <device>  (majority|eig|phase-king) — prints the covering run's traffic trace; for an instrumentation trace use -trace on run/all/prove/chaos")
		return 2
	}
	tri := flm.Triangle()
	peers := tri.Names()
	devices := map[string]flm.Builder{
		"majority":   flm.NewMajority(2),
		"eig":        flm.NewEIG(1, peers),
		"phase-king": flm.NewPhaseKing(1, peers),
	}
	builder, ok := devices[args[0]]
	if !ok {
		fmt.Fprintf(errOut, "trace: unknown device %q (have: majority, eig, phase-king)\n", args[0])
		return 2
	}
	builders := map[string]flm.Builder{}
	for _, name := range peers {
		builders[name] = builder
	}
	cover := flm.HexCover()
	inputs := map[string]flm.Input{}
	for i := 0; i < cover.S.N(); i++ {
		inputs[cover.S.Name(i)] = flm.BoolInput(i >= 3)
	}
	inst, err := flm.InstallCover(cover, builders, inputs)
	if err != nil {
		fmt.Fprintf(errOut, "trace: %v\n", err)
		return 1
	}
	run, err := inst.Execute(6)
	if err != nil {
		fmt.Fprintf(errOut, "trace: %v\n", err)
		return 1
	}
	st := flm.CollectStats(run)
	fmt.Fprintf(out, "hexagon covering run of %q: %s\n\n", args[0], st)
	fmt.Fprint(out, flm.TraceRun(run, 60))
	fmt.Fprintf(out, "\ndecisions:\n%s", run)
	return 0
}

func cmdList(out io.Writer) int {
	for _, e := range flm.Experiments() {
		fmt.Fprintf(out, "%-4s %-55s %s\n", e.ID, e.Name, e.Paper)
	}
	return 0
}

func cmdRun(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	tracePath := fs.String("trace", "", "write a JSONL instrumentation trace (spans+metrics) to this file; FLM_TRACE is the env fallback")
	fs.SetOutput(errOut)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ids := fs.Args()
	if len(ids) == 0 {
		fmt.Fprintln(errOut, "run: need at least one experiment ID: flm run [-trace file.jsonl] <id> [<id>...]")
		return 2
	}
	stop, err := startTrace(traceTarget(*tracePath), errOut)
	if err != nil {
		fmt.Fprintf(errOut, "run: %v\n", err)
		return 1
	}
	defer stop()
	for _, id := range ids {
		e, ok := flm.FindExperiment(strings.ToUpper(id))
		if !ok {
			fmt.Fprintf(errOut, "no experiment %q (try: flm list)\n", id)
			return 2
		}
		res, err := runExperiment(e)
		if err != nil {
			fmt.Fprintf(errOut, "%s failed: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintln(out, res.Render())
	}
	return 0
}

func cmdAll(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	outPath := fs.String("o", "", "also write the report to this file")
	tracePath := fs.String("trace", "", "write a JSONL instrumentation trace (spans+metrics) to this file; FLM_TRACE is the env fallback")
	fs.SetOutput(errOut)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var sink io.Writer = out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(errOut, "create %s: %v\n", *outPath, err)
			return 1
		}
		defer f.Close()
		sink = io.MultiWriter(out, f)
	}
	stop, err := startTrace(traceTarget(*tracePath), errOut)
	if err != nil {
		fmt.Fprintf(errOut, "all: %v\n", err)
		return 1
	}
	defer stop()
	for _, e := range flm.Experiments() {
		res, err := runExperiment(e)
		if err != nil {
			fmt.Fprintf(errOut, "%s FAILED: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintln(sink, res.Render())
	}
	return 0
}

func cmdAdequacy(args []string, out, errOut io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(errOut, "adequacy: usage: flm adequacy <n> <f>")
		return 2
	}
	n, err1 := strconv.Atoi(args[0])
	f, err2 := strconv.Atoi(args[1])
	if err1 != nil || err2 != nil || n < 1 || f < 0 {
		fmt.Fprintln(errOut, "adequacy: n and f must be non-negative integers (n >= 1)")
		return 2
	}
	g := flm.Complete(n)
	fmt.Fprintf(out, "K_%d: connectivity %d, 3f+1 = %d, 2f+1 = %d\n",
		n, g.VertexConnectivity(), 3*f+1, 2*f+1)
	if flm.Adequate(g, f) {
		fmt.Fprintf(out, "ADEQUATE for f=%d: all five consensus problems are solvable (see E9-E12)\n", f)
	} else {
		fmt.Fprintf(out, "INADEQUATE for f=%d: Theorems 1,2,4,5,6,8 apply (see E1-E8)\n", f)
	}
	fmt.Fprintf(out, "max tolerable faults: %d\n", flm.MaxTolerableFaults(g))
	return 0
}

func cmdProve(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("prove", flag.ContinueOnError)
	tracePath := fs.String("trace", "", "write a JSONL instrumentation trace (spans+metrics) to this file; FLM_TRACE is the env fallback")
	fs.SetOutput(errOut)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	args = fs.Args()
	if len(args) != 1 {
		fmt.Fprintln(errOut, "prove: usage: flm prove [-trace file.jsonl] <device>")
		return 2
	}
	stop, err := startTrace(traceTarget(*tracePath), errOut)
	if err != nil {
		fmt.Fprintf(errOut, "prove: %v\n", err)
		return 1
	}
	defer stop()
	g := flm.Triangle()
	peers := g.Names()
	devices := map[string]flm.Builder{
		"majority":   flm.NewMajority(2),
		"eig":        flm.NewEIG(1, peers),
		"phase-king": flm.NewPhaseKing(1, peers),
	}
	name := args[0]
	builder, ok := devices[name]
	if !ok {
		fmt.Fprintf(errOut, "prove: unknown device %q (have: majority, eig, phase-king)\n", name)
		return 2
	}
	builders := map[string]flm.Builder{}
	for _, nodeName := range peers {
		builders[nodeName] = builder
	}
	cr, err := flm.ProveByzantineTriangle(builders, name, 8)
	if err != nil {
		fmt.Fprintf(errOut, "engine error: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, cr.String())
	return 0
}
