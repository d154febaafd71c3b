// Command flmbench is the repository's benchmark: it drives the prove,
// prove-warm, census and chaos workloads closed-loop through the
// layers' public functions, checks every op's output, and reports
// drift-corrected end-to-end metrics (--trace 0) or per-layer metrics
// from a traced run (--trace 1). See README.md for the workloads, every
// metric's formula, and the reference kernel.
//
// Usage:
//
//	flmbench --workload prove --seed 1 --seconds 27 --trace 0
//	flmbench aa --workloads prove,census --runs 5 --seconds 27
//	flmbench pool --sync 1-300 --async 1-300
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"flm"
	"flm/internal/obs"
	"flm/internal/sweep"
)

// pinnedEnv lists the environment variables that change the program's
// behavior (cache on/off, L1 budget, disk tier, sweep fan-out, tracing,
// live endpoint). The benchmark refuses to run with any of them set,
// so a stray environment cannot change a workload.
var pinnedEnv = []string{"FLM_RUNCACHE", "FLM_CACHE_BUDGET", "FLM_CACHE_DIR", "FLM_WORKERS", "FLM_TRACE", "FLM_OBS_LISTEN"}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// minOps is the fewest measured ops of an untraced run: p90 is reported
// only with at least ten ops beyond it. An untraced run keeps measuring
// past --seconds until it has them, for at most maxMeasure.
const (
	minOps     = 100
	maxMeasure = 120 * time.Second
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "aa":
			os.Exit(runAA(os.Args[2:]))
		case "pool":
			os.Exit(runPool(os.Args[2:]))
		case "calibrate":
			os.Exit(runCalibrate(os.Args[2:]))
		}
	}
	os.Exit(runBench(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	workdir  string
	traceOut string
}

func runBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&c.seed, "seed", 1, "seed that orders the op kinds and picks their inputs")
	fs.IntVar(&c.seconds, "seconds", 20, "measure whole passes until this many seconds have elapsed")
	fs.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&c.workdir, "workdir", ".bench_build", "directory for private temporary files")
	fs.StringVar(&c.traceOut, "trace-out", "", "with --trace 1, also write the traced ops' spans (JSONL) here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if c.workload == "" || c.seconds < 1 || (c.trace != 0 && c.trace != 1) {
		fmt.Fprintln(stderr, "flmbench: need --workload, --seconds >= 1 and --trace 0|1")
		return 2
	}
	for _, k := range pinnedEnv {
		if v, ok := os.LookupEnv(k); ok && v != "" {
			fmt.Fprintf(stderr, "flmbench: refusing to run with %s=%q set; unset it\n", k, v)
			return 2
		}
	}
	res, err := run(c, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "flmbench: %v\n", err)
		return 1
	}
	printTable(stderr, c, res)
	diag, _ := json.Marshal(map[string]any{"diagnostics": res.diagnostics})
	fmt.Fprintln(stdout, string(diag))
	line, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintf(stderr, "flmbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type runOutput struct {
	result      result
	diagnostics map[string]metricValue
	byKind      map[string]float64
}

// run sets up, measures and reports one workload.
func run(c config, stderr io.Writer) (*runOutput, error) {
	restoreCache := flm.SetRunCacheEnabled(true)
	defer restoreCache()
	defer flm.DisableDiskRunCache()()
	defer sweep.SetWorkers(sweep.SetWorkers(2))
	defer obs.SetTracer(nil)()
	workdir, err := filepath.Abs(c.workdir)
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(workdir, fmt.Sprintf("flmbench-%d", os.Getpid()))
	defer os.RemoveAll(tmp)
	w, err := newWorkload(c.workload, c.seed, tmp)
	if err != nil {
		return nil, err
	}
	defer w.close()
	h := &harness{w: w}

	var setups, setupsRaw []float64
	for i := 0; i < setupReps; i++ {
		h.setupMS, h.setupRawMS, h.graphMS = 0, 0, 0
		h.diskMark = h.diskWritten
		if err := w.setup(h); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, h.setupMS/1000)
		setupsRaw = append(setupsRaw, h.setupRawMS/1000)
	}

	var tr *tracer
	if c.trace == 1 {
		tr = &tracer{}
		if c.traceOut != "" {
			tr.keep = &bytes.Buffer{}
		}
	}
	var plain, traced []sample
	var pairs [][2]float64 // traced vs untraced corrected time of the same op
	start := time.Now()
	deadline := start.Add(time.Duration(c.seconds) * time.Second)
	for k := 0; time.Now().Before(deadline) || (tr == nil && len(plain) < minOps && time.Since(start) < maxMeasure); k++ {
		ops := w.pass(k)
		// Each op's untraced sample (its index in plain, -1 when it
		// failed) and verdict. Verdicts are kept only for the traced
		// rerun of this pass, so they never pile up in the heap that
		// retained_mb reads.
		untraced := make([]int, len(ops))
		verdicts := make([]string, len(ops))
		for i, o := range ops {
			untraced[i] = -1
			if s, ok := h.measure(o, nil); ok {
				untraced[i] = len(plain)
				if tr != nil {
					verdicts[i] = s.verdict
				}
				s.verdict = ""
				plain = append(plain, s)
			}
		}
		if tr == nil {
			continue
		}
		for i, o := range ops {
			s, ok := h.measure(o, tr)
			if !ok {
				continue
			}
			if j := untraced[i]; j >= 0 {
				if s.verdict != verdicts[i] {
					h.fail(o.kind, fmt.Errorf("traced verdict differs from the untraced verdict"))
					continue
				}
				pairs = append(pairs, [2]float64{s.corr, plain[j].corr})
			}
			s.verdict = ""
			traced = append(traced, s)
		}
	}
	if len(plain) == 0 || (tr == nil && !percentileOK(len(plain), 0.9, 10)) {
		return nil, fmt.Errorf("only %d ops succeeded, too few for p90: %s", len(plain), strings.Join(h.errors, "; "))
	}
	if tr != nil && len(traced) == 0 {
		return nil, fmt.Errorf("no traced op succeeded: %s", strings.Join(h.errors, "; "))
	}
	for _, e := range h.errors {
		fmt.Fprintf(stderr, "flmbench: FAILED %s\n", e)
	}
	if tr != nil && tr.keep != nil {
		if err := os.WriteFile(c.traceOut, tr.keep.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}

	out := &runOutput{byKind: map[string]float64{}}
	out.result = result{Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed, Metrics: map[string]metricValue{}}
	e2e := endToEnd(plain, setups)
	diag := diagnostics(h, plain, setupsRaw)
	if c.trace == 0 {
		out.result.Metrics = e2e
		out.diagnostics = diag
	} else {
		out.result.Metrics = perLayer(h, traced, pairs, diag)
		out.diagnostics = e2e
	}
	kinds := map[string][]float64{}
	for _, s := range plain {
		kinds[s.kind] = append(kinds[s.kind], s.corr)
	}
	for k, v := range kinds {
		out.byKind[k] = median(v)
	}
	return out, nil
}

// printTable writes every reported metric by name with its unit, plus
// the seed, the run's op counts and fail_ratio, to w.
func printTable(w io.Writer, c config, res *runOutput) {
	fmt.Fprintf(w, "flmbench workload=%s seed=%d seconds=%d trace=%d attempted=%d failed=%d fail_ratio=%g correct=%v\n",
		c.workload, c.seed, c.seconds, c.trace, res.result.Attempted, res.result.Failed,
		float64(res.result.Failed)/float64(res.result.Attempted), res.result.Correct)
	section := func(title string, m map[string]metricValue) {
		fmt.Fprintf(w, "  %s\n", title)
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "    %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
		}
	}
	if c.trace == 0 {
		section("end-to-end", res.result.Metrics)
		section("diagnostics", res.diagnostics)
	} else {
		section("per-layer", res.result.Metrics)
		section("end-to-end (untraced passes of this run)", res.diagnostics)
	}
	kinds := make([]string, 0, len(res.byKind))
	for k := range res.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "  median drift-corrected ms by op kind\n")
	for _, k := range kinds {
		fmt.Fprintf(w, "    %-34s %10.3f\n", k, res.byKind[k])
	}
}

// peakRSSMB reads the process's peak resident set from /proc, in MB
// (0 where /proc is unavailable).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%g", &kb)
			return kb * 1024 / 1e6
		}
	}
	return 0
}
