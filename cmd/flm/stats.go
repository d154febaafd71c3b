package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// The stats subcommand replays a -trace JSONL file into per-subsystem
// summaries: where the time went (per-span-name totals and the slowest
// individual spans), how the run cache served the run, how busy
// each sweep worker was, the shape of the contradiction chains, and the
// chaos harness's trial outcomes. It is the intended consumer of the
// tracer's output — a trace is append-only JSON lines precisely so this
// command (and ad-hoc jq) can fold it after the fact.

// traceRec decodes any line of a trace file; T discriminates.
type traceRec struct {
	T        string              `json:"t"`
	ID       uint64              `json:"id"`
	Par      uint64              `json:"par"`
	Name     string              `json:"name"`
	StartUS  int64               `json:"start_us"`
	DurUS    int64               `json:"dur_us"`
	AtUS     int64               `json:"at_us"`
	Attrs    map[string]any      `json:"attrs"`
	Counters map[string]uint64   `json:"counters"`
	Gauges   map[string]int64    `json:"gauges"`
	Hists    map[string]histSnap `json:"hists"`
}

type histSnap struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Max   uint64 `json:"max"`
}

// attrStr reads a string attribute ("" when absent or not a string).
func (r *traceRec) attrStr(key string) string {
	s, _ := r.Attrs[key].(string)
	return s
}

// attrInt reads a numeric attribute (JSON numbers decode as float64).
func (r *traceRec) attrInt(key string) (int64, bool) {
	f, ok := r.Attrs[key].(float64)
	return int64(f), ok
}

// usDur renders a microsecond count as a human duration.
func usDur(us int64) string {
	return (time.Duration(us) * time.Microsecond).String()
}

func cmdStats(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	minDiskRate := fs.Float64("mindiskrate", -1, "gate: exit nonzero unless at least this percent of the run cache's L1 misses were served from the disk tier (the CI cache-warm assertion); negative disables")
	diff := fs.Bool("diff", false, "compare two traces (old.jsonl new.jsonl) and exit 3 when behavior drifted beyond -threshold")
	threshold := fs.Float64("threshold", 5, "diff gate: tolerated drift in percent (counters, span counts, traffic) and percentage points (span time shares, cache rates)")
	noTiming := fs.Bool("notiming", false, "diff: skip the wall-time-share family (for comparing traces from different machines)")
	fs.SetOutput(errOut)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *diff {
		if fs.NArg() != 2 {
			fmt.Fprintln(errOut, "stats: usage: flm stats -diff [-threshold pct] [-notiming] <old.jsonl> <new.jsonl>")
			return 2
		}
		return cmdStatsDiff(fs.Arg(0), fs.Arg(1), *threshold, *noTiming, out, errOut)
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(errOut, "stats: usage: flm stats [-mindiskrate pct] <trace.jsonl>  (produced by -trace on run/all/prove/chaos), or flm stats -diff <old.jsonl> <new.jsonl>")
		return 2
	}
	path := fs.Arg(0)
	summary, err := foldTraceFile(path)
	if err != nil {
		fmt.Fprintf(errOut, "stats: %v\n", err)
		return 1
	}
	summary.render(out, path)
	if *minDiskRate >= 0 {
		rate := summary.diskRate()
		fmt.Fprintf(out, "\ndisk tier served %.1f%% of run-cache L1 misses (gate: >= %.1f%%)\n", rate, *minDiskRate)
		if rate < *minDiskRate {
			fmt.Fprintln(errOut, "stats: disk hit-rate below the -mindiskrate gate")
			return 3
		}
	}
	return 0
}

// spanAgg accumulates all spans sharing a name.
type spanAgg struct {
	name    string
	count   int
	totalUS int64
	maxUS   int64
}

// slowSpan is one entry of the slowest-spans leaderboard.
type slowSpan struct {
	rec traceRec
}

// workerAgg accumulates one worker index across every traced sweep.
type workerAgg struct {
	worker int64
	spans  int
	trials int64
	faults int64
	busyUS int64
	idleUS int64
}

// chainAgg accumulates one theorem's chain links. A link at depth 1
// starts a new chain (theorem drivers build one chain per device
// variant); first keeps the first full chain as the shape exemplar.
type chainAgg struct {
	theorem  string
	links    int
	chains   int
	first    []string
	maxDepth int64
}

// expAgg is one flm.experiment span, kept in trace order.
type expAgg struct{ rec traceRec }

// traceSummary is the folded state of a whole trace file.
type traceSummary struct {
	spans, events int
	wallUS        int64
	byName        map[string]*spanAgg
	slowest       []slowSpan
	execCache     map[string]int // sim.execute spans by cache attr
	workers       map[int64]*workerAgg
	sweeps        int
	chains        map[string]*chainAgg
	chainOrder    []string
	chaosOutcome  map[string]int
	chaosTrials   int
	shrinkEvals   int64
	experiments   []expAgg
	metrics       *traceRec
	msgTotal      int64 // sum of sim.execute "messages" attrs (full recordings)
	byteTotal     int64 // sum of sim.execute "bytes" attrs
}

const slowestKept = 5

// foldTraceFile opens and folds one trace file.
func foldTraceFile(path string) (*traceSummary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := foldTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// foldTrace folds every line of a trace into a summary; any unparsable
// line is an error (a valid trace is valid JSON per line, always).
func foldTrace(r io.Reader) (*traceSummary, error) {
	s := &traceSummary{
		byName:       map[string]*spanAgg{},
		execCache:    map[string]int{},
		workers:      map[int64]*workerAgg{},
		chains:       map[string]*chainAgg{},
		chaosOutcome: map[string]int{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24) // schedules/errors can make long lines
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec traceRec
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		switch rec.T {
		case "span":
			s.addSpan(rec)
		case "event":
			s.addEvent(rec)
		case "metrics":
			m := rec
			s.metrics = &m
			if m.AtUS > s.wallUS {
				s.wallUS = m.AtUS
			}
		default:
			return nil, fmt.Errorf("line %d: unknown record type %q", lineNo, rec.T)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if s.spans == 0 && s.events == 0 {
		return nil, fmt.Errorf("no trace records (was the producer run with -trace?)")
	}
	return s, nil
}

func (s *traceSummary) addSpan(rec traceRec) {
	s.spans++
	if end := rec.StartUS + rec.DurUS; end > s.wallUS {
		s.wallUS = end
	}
	agg := s.byName[rec.Name]
	if agg == nil {
		agg = &spanAgg{name: rec.Name}
		s.byName[rec.Name] = agg
	}
	agg.count++
	agg.totalUS += rec.DurUS
	if rec.DurUS > agg.maxUS {
		agg.maxUS = rec.DurUS
	}
	s.noteSlow(rec)

	switch rec.Name {
	case "sim.execute":
		if st := rec.attrStr("cache"); st != "" {
			s.execCache[st]++
		}
		if v, ok := rec.attrInt("messages"); ok {
			s.msgTotal += v
		}
		if v, ok := rec.attrInt("bytes"); ok {
			s.byteTotal += v
		}
	case "sweep.map", "sweep.isolated":
		s.sweeps++
	case "sweep.worker":
		w, _ := rec.attrInt("worker")
		wa := s.workers[w]
		if wa == nil {
			wa = &workerAgg{worker: w}
			s.workers[w] = wa
		}
		wa.spans++
		if v, ok := rec.attrInt("trials"); ok {
			wa.trials += v
		}
		if v, ok := rec.attrInt("faults"); ok {
			wa.faults += v
		}
		if v, ok := rec.attrInt("busy_us"); ok {
			wa.busyUS += v
		}
		if v, ok := rec.attrInt("idle_us"); ok {
			wa.idleUS += v
		}
	case "core.chain.link":
		th := rec.attrStr("theorem")
		ch := s.chains[th]
		if ch == nil {
			ch = &chainAgg{theorem: th}
			s.chains[th] = ch
			s.chainOrder = append(s.chainOrder, th)
		}
		ch.links++
		d, ok := rec.attrInt("depth")
		if ok && d > ch.maxDepth {
			ch.maxDepth = d
		}
		if ok && d == 1 {
			ch.chains++
		}
		if ch.chains <= 1 {
			ch.first = append(ch.first, rec.attrStr("link"))
		}
	case "chaos.shrink":
		if v, ok := rec.attrInt("evals"); ok {
			s.shrinkEvals += v
		}
	case "flm.experiment":
		s.experiments = append(s.experiments, expAgg{rec})
	}
}

func (s *traceSummary) addEvent(rec traceRec) {
	s.events++
	if rec.AtUS > s.wallUS {
		s.wallUS = rec.AtUS
	}
	if rec.Name == "chaos.trial" {
		s.chaosTrials++
		if o := rec.attrStr("outcome"); o != "" {
			s.chaosOutcome[o]++
		}
	}
}

// noteSlow keeps the slowestKept longest spans seen so far.
func (s *traceSummary) noteSlow(rec traceRec) {
	s.slowest = append(s.slowest, slowSpan{rec})
	sort.SliceStable(s.slowest, func(i, j int) bool {
		return s.slowest[i].rec.DurUS > s.slowest[j].rec.DurUS
	})
	if len(s.slowest) > slowestKept {
		s.slowest = s.slowest[:slowestKept]
	}
}

// cacheLine renders the run cache's span-derived counters; served is
// the fraction answered without running (hits, single-flight waits, and
// disk-tier fills).
func cacheLine(w io.Writer, label string, counts map[string]int) {
	if len(counts) == 0 {
		fmt.Fprintf(w, "  %-12s no traffic in this trace\n", label)
		return
	}
	hit, wait, disk, miss := counts["hit"], counts["wait"], counts["disk"], counts["miss"]
	lookups := hit + wait + disk + miss
	rate := 0.0
	if lookups > 0 {
		rate = 100 * float64(hit+wait+disk) / float64(lookups)
	}
	fmt.Fprintf(w, "  %-12s hit %d  wait %d  disk %d  miss %d  bypass %d  uncacheable %d  — hit rate %.1f%%\n",
		label, hit, wait, disk, miss, counts["bypass"], counts["uncacheable"], rate)
}

// diskRate is the percentage of run-cache lookups that fell through L1
// and were then served by the disk tier: disk / (disk + miss). This is
// the cache-warm CI assertion's measure — a second cold process should
// fill its L1 misses from the blobs the first one wrote, so L1 hits
// (which say nothing about cross-process reuse) are excluded on both
// sides of the ratio.
func (s *traceSummary) diskRate() float64 {
	disk, miss := s.execCache["disk"], s.execCache["miss"]
	if disk+miss == 0 {
		return 0
	}
	return 100 * float64(disk) / float64(disk+miss)
}

func (s *traceSummary) render(out io.Writer, path string) {
	fmt.Fprintf(out, "trace %s: %d spans, %d events, wall %s\n",
		path, s.spans, s.events, usDur(s.wallUS))

	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		return s.byName[names[i]].totalUS > s.byName[names[j]].totalUS
	})
	fmt.Fprintf(out, "\nspans by name (total time desc):\n")
	fmt.Fprintf(out, "  %-20s %8s %12s %12s %12s\n", "name", "count", "total", "mean", "max")
	for _, n := range names {
		a := s.byName[n]
		fmt.Fprintf(out, "  %-20s %8d %12s %12s %12s\n",
			a.name, a.count, usDur(a.totalUS), usDur(a.totalUS/int64(a.count)), usDur(a.maxUS))
	}

	fmt.Fprintf(out, "\nslowest spans:\n")
	for i, sl := range s.slowest {
		extra := ""
		if c := sl.rec.attrStr("cache"); c != "" {
			extra = "  cache=" + c
		}
		if id := sl.rec.attrStr("id"); id != "" {
			extra += "  id=" + id
		}
		fmt.Fprintf(out, "  %d. %-20s %12s  (span %d)%s\n", i+1, sl.rec.Name, usDur(sl.rec.DurUS), sl.rec.ID, extra)
	}

	fmt.Fprintf(out, "\nmemoization caches:\n")
	cacheLine(out, "run cache", s.execCache)

	fmt.Fprintf(out, "\nsweep workers:\n")
	if len(s.workers) == 0 {
		fmt.Fprintf(out, "  no sweep activity in this trace\n")
	} else {
		idxs := make([]int64, 0, len(s.workers))
		for w := range s.workers {
			idxs = append(idxs, w)
		}
		sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
		fmt.Fprintf(out, "  %-8s %8s %8s %8s %12s %12s %12s\n",
			"worker", "sweeps", "trials", "faults", "busy", "idle", "utilization")
		for _, wi := range idxs {
			wa := s.workers[wi]
			util := 0.0
			if wall := wa.busyUS + wa.idleUS; wall > 0 {
				util = 100 * float64(wa.busyUS) / float64(wall)
			}
			fmt.Fprintf(out, "  %-8d %8d %8d %8d %12s %12s %11.1f%%\n",
				wa.worker, wa.spans, wa.trials, wa.faults, usDur(wa.busyUS), usDur(wa.idleUS), util)
		}
		fmt.Fprintf(out, "  (%d traced sweeps)\n", s.sweeps)
	}

	if len(s.chainOrder) > 0 {
		fmt.Fprintf(out, "\ncontradiction chains:\n")
		for _, th := range s.chainOrder {
			ch := s.chains[th]
			fmt.Fprintf(out, "  %-28s %d chain(s), %d links, depth %d: %s\n",
				ch.theorem, ch.chains, ch.links, ch.maxDepth, strings.Join(ch.first, " -> "))
		}
	}

	if s.chaosTrials > 0 {
		keys := make([]string, 0, len(s.chaosOutcome))
		for k := range s.chaosOutcome {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%d", k, s.chaosOutcome[k])
		}
		fmt.Fprintf(out, "\nchaos: %d trials: %s", s.chaosTrials, strings.Join(parts, " "))
		if s.shrinkEvals > 0 {
			fmt.Fprintf(out, "; shrink re-executions %d", s.shrinkEvals)
		}
		fmt.Fprintln(out)
	}

	if len(s.experiments) > 0 {
		fmt.Fprintf(out, "\nexperiments:\n")
		for _, e := range s.experiments {
			hits, _ := e.rec.attrInt("runcache_hits")
			misses, _ := e.rec.attrInt("runcache_misses")
			line := fmt.Sprintf("  %-4s %-44s %10s  runcache +%d hit / +%d miss",
				e.rec.attrStr("id"), e.rec.attrStr("name"), usDur(e.rec.DurUS), hits, misses)
			if disk, ok := e.rec.attrInt("runcache_disk_hits"); ok && disk > 0 {
				line += fmt.Sprintf(" / +%d disk", disk)
			}
			if ev, ok := e.rec.attrInt("runcache_evictions"); ok && ev > 0 {
				line += fmt.Sprintf(" / +%d evict", ev)
			}
			if errText := e.rec.attrStr("error"); errText != "" {
				line += "  ERROR: " + errText
			}
			fmt.Fprintln(out, line)
		}
	}

	if s.metrics != nil {
		fmt.Fprintf(out, "\nfinal metrics:\n")
		cnames := make([]string, 0, len(s.metrics.Counters))
		for n := range s.metrics.Counters {
			cnames = append(cnames, n)
		}
		sort.Strings(cnames)
		for _, n := range cnames {
			fmt.Fprintf(out, "  %-24s %d\n", n, s.metrics.Counters[n])
		}
		gnames := make([]string, 0, len(s.metrics.Gauges))
		for n := range s.metrics.Gauges {
			gnames = append(gnames, n)
		}
		sort.Strings(gnames)
		for _, n := range gnames {
			fmt.Fprintf(out, "  %-24s %d\n", n, s.metrics.Gauges[n])
		}
		hnames := make([]string, 0, len(s.metrics.Hists))
		for n := range s.metrics.Hists {
			hnames = append(hnames, n)
		}
		sort.Strings(hnames)
		for _, n := range hnames {
			h := s.metrics.Hists[n]
			mean := 0.0
			if h.Count > 0 {
				mean = float64(h.Sum) / float64(h.Count)
			}
			fmt.Fprintf(out, "  %-24s count=%d mean=%.1fµs max=%s\n", n, h.Count, mean, usDur(int64(h.Max)))
		}
	}
}
