package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"flm/internal/sweep"
)

// runAA is the A/A steadiness mode: it runs each workload as two
// alternating sets (A, B, A, B, ...) of runs of this same binary, each
// run with its own seed, and prints for every end-to-end metric and the
// raw wall-clock diagnostics each set's median and quartiles, its
// spread (IQR over median, quartiles as Python's statistics.quantiles
// computes them), the gap between the set medians, and the spread over
// the runs of both sets together. The bounds in
// BENCHMARK.json are set from this evidence, and the corrected-vs-raw
// op_p50_ms spreads show whether the drift correction earns its place.
func runAA(args []string) int {
	fs := flag.NewFlagSet("flmbench aa", flag.ContinueOnError)
	workloads := fs.String("workloads", strings.Join(workloadNames, ","), "comma-separated workloads")
	runs := fs.Int("runs", 5, "runs per set")
	seconds := fs.Int("seconds", 20, "--seconds of every run")
	seed := fs.Int64("seed", 1, "first seed; run i of set s uses seed+2i+s")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "flmbench aa:", err)
		return 1
	}
	for _, w := range strings.Split(*workloads, ",") {
		var sets [2][]map[string]float64
		for i := 0; i < *runs; i++ {
			for s := 0; s < 2; s++ {
				m, err := childRun(self, w, *seed+int64(2*i+s), *seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "flmbench aa: %s run %d set %c: %v\n", w, i, 'A'+s, err)
					return 1
				}
				sets[s] = append(sets[s], m)
			}
		}
		printAA(w, *runs, sets)
	}
	return 0
}

// aaMetrics are the metrics the A/A report compares, end-to-end first.
var aaMetrics = []string{
	"setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "alloc_mb_per_op", "retained_mb",
	"wall.setup_s", "wall.ops_per_s", "wall.op_p50_ms", "wall.op_p90_ms", "host.ref_ms",
}

// childRun runs one untraced benchmark run in a child process and
// returns its end-to-end metrics and diagnostics by name.
func childRun(self, workload string, seed int64, seconds int) (map[string]float64, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("short output %q", out.String())
	}
	var diag struct {
		Diagnostics map[string]metricValue `json:"diagnostics"`
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &diag); err != nil {
		return nil, err
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, err
	}
	if !res.Correct {
		return nil, fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	m := map[string]float64{}
	for k, v := range diag.Diagnostics {
		m[k] = v.Value
	}
	for k, v := range res.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

func printAA(workload string, runs int, sets [2][]map[string]float64) {
	fmt.Printf("== %s: %d runs per set, sets alternating ==\n", workload, runs)
	fmt.Printf("%-17s %12s %12s %12s %8s   %12s %12s %12s %8s   %8s   %8s\n",
		"metric", "A median", "A q1", "A q3", "A spread", "B median", "B q1", "B q3", "B spread", "gap", "all runs")
	spreads := map[string][2]float64{}
	for _, name := range aaMetrics {
		var med, sp [2]float64
		var q1, q3 [2]float64
		var all []float64
		for s := 0; s < 2; s++ {
			var xs []float64
			for _, m := range sets[s] {
				xs = append(xs, m[name])
			}
			all = append(all, xs...)
			med[s] = median(xs)
			q1[s], q3[s] = quartiles(xs)
			sp[s] = spread(xs)
		}
		spreads[name] = sp
		fmt.Printf("%-17s %12.5g %12.5g %12.5g %7.2f%%   %12.5g %12.5g %12.5g %7.2f%%   %+7.2f%%   %7.2f%%\n",
			name, med[0], q1[0], q3[0], 100*sp[0], med[1], q1[1], q3[1], 100*sp[1], 100*(med[1]-med[0])/med[0],
			100*spread(all))
	}
	c, r := spreads["op_p50_ms"], spreads["wall.op_p50_ms"]
	verdict := "correction helps"
	if c[0] >= r[0] || c[1] >= r[1] {
		verdict = "CORRECTION DOES NOT HELP"
	}
	fmt.Printf("op_p50_ms spread: corrected %.2f%% / %.2f%%, raw %.2f%% / %.2f%% (sets A / B): %s\n\n",
		100*c[0], 100*c[1], 100*r[0], 100*r[1], verdict)
}

// runPool is the pool scan behind chaosPools: it prints, for master
// seeds of either generator, each batch's outcome and median
// drift-corrected cost.
func runPool(args []string) int {
	fs := flag.NewFlagSet("flmbench pool", flag.ContinueOnError)
	syncSeeds := fs.String("sync", "", "synchronous-generator master seeds: a list (1,5,9) or a range (1-300)")
	asyncSeeds := fs.String("async", "", "Async+Dead master seeds: a list or a range")
	reps := fs.Int("reps", 3, "runs per seed; the cost printed is their median")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var cands []poolCandidate
	for _, spec := range []struct {
		list  string
		async bool
	}{{*syncSeeds, false}, {*asyncSeeds, true}} {
		seeds, err := parseSeeds(spec.list)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flmbench pool:", err)
			return 2
		}
		for _, s := range seeds {
			cands = append(cands, poolCandidate{s, spec.async})
		}
	}
	defer sweep.SetWorkers(sweep.SetWorkers(2))
	fmt.Println("# seed async green expected corrected_ms")
	scanPool(cands, *reps)
	return 0
}

// parseSeeds reads "1,5,9" or "1-300" (or "").
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	if s == "" {
		return nil, nil
	}
	var lo, hi int64
	if n, _ := fmt.Sscanf(s, "%d-%d", &lo, &hi); n == 2 && !strings.Contains(s, ",") {
		for x := lo; x <= hi; x++ {
			out = append(out, x)
		}
		return out, nil
	}
	for _, f := range strings.Split(s, ",") {
		var x int64
		if _, err := fmt.Sscanf(f, "%d", &x); err != nil {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		out = append(out, x)
	}
	return out, nil
}

// runCalibrate times every proof of the prove catalogue, and every
// census kind, as an op of its own (same fences and drift correction
// as a benchmark run) and prints the median corrected cost: the data
// proveBundles and the census batch sizes are balanced from.
func runCalibrate(args []string) int {
	fs := flag.NewFlagSet("flmbench calibrate", flag.ContinueOnError)
	reps := fs.Int("reps", 5, "timed runs per proof or kind")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	defer sweep.SetWorkers(sweep.SetWorkers(2))
	h := &harness{w: &censusWorkload{}}
	var ops []op
	for _, p := range proofCatalogue(newRNG(1, 1)) {
		p := p
		ops = append(ops, op{kind: "prove " + p.name,
			run: func(env *opEnv) (any, error) { return p.run(env) },
			check: func(res any, st *opStats) (string, error) {
				return "", checkProof(p, res.(proofResult))
			}})
	}
	kinds, err := buildCensusKinds(h)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flmbench calibrate:", err)
		return 1
	}
	w := &censusWorkload{seed: 1, kinds: kinds}
	for _, o := range w.pass(0) {
		o.kind = "census " + o.kind
		ops = append(ops, o)
	}
	costs := map[string][]float64{}
	for r := 0; r < *reps; r++ {
		for _, i := range newRNG(1, 9, int64(r)).perm(len(ops)) {
			if s, ok := h.measure(ops[i], nil); ok {
				costs[ops[i].kind] = append(costs[ops[i].kind], s.corr)
			}
		}
	}
	for _, e := range h.errors {
		fmt.Println("FAILED", e)
	}
	for _, o := range ops {
		fmt.Printf("%-40s %9.3f ms\n", o.kind, median(costs[o.kind]))
	}
	return 0
}
