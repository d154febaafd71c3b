package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// The trace-diff regression gate: `flm stats -diff old.jsonl new.jsonl`
// folds two traces and compares the behavioral families that should be
// stable run-over-run. Exit 3 when any family drifts beyond -threshold.
//
// Families and their units:
//
//   - counter      final-metrics counters (exec runs, cache traffic,
//                  sweep trials, async message accounting) — relative %
//   - spans        span count per name — relative %
//   - span-share   per-name share of total span time — percentage
//                  points; skipped under -notiming since wall time is
//                  machine-dependent even when behavior is identical
//   - cache        run-cache served-rate ((hit+wait+disk)/lookups) —
//                  percentage points; the combined rate is deterministic
//                  even though the hit/wait split depends on scheduling
//   - traffic      total messages and bytes across sim.execute spans
//                  (full recordings) — relative %
//
// Gauges and histogram sums/maxes are never compared: gauges are
// point-in-time readings and histogram timing is machine noise.

// diffRow is one compared series.
type diffRow struct {
	family   string
	name     string
	old, cur float64
	drift    float64 // in unit
	unit     string  // "%" (relative) or "pp" (percentage points)
}

// relDrift is the relative percent change from old to cur; a series
// appearing or vanishing outright is infinite drift (it always gates
// unless the threshold is, absurdly, +Inf).
func relDrift(old, cur float64) float64 {
	if old == cur {
		return 0
	}
	if old == 0 {
		return math.Inf(1)
	}
	return 100 * math.Abs(cur-old) / old
}

// addRel appends a relative-% row.
func addRel(rows []diffRow, family, name string, old, cur float64) []diffRow {
	return append(rows, diffRow{family: family, name: name, old: old, cur: cur, drift: relDrift(old, cur), unit: "%"})
}

// servedRate is a cache's fraction of lookups answered without running
// (hits + single-flight waits + disk fills), in percent.
func servedRate(counts map[string]int) float64 {
	hit, wait, disk, miss := counts["hit"], counts["wait"], counts["disk"], counts["miss"]
	lookups := hit + wait + disk + miss
	if lookups == 0 {
		return 0
	}
	return 100 * float64(hit+wait+disk) / float64(lookups)
}

// spanShares maps span name -> its share of the trace's total span
// time, in percent.
func spanShares(s *traceSummary) map[string]float64 {
	var total int64
	for _, a := range s.byName {
		total += a.totalUS
	}
	shares := make(map[string]float64, len(s.byName))
	if total == 0 {
		return shares
	}
	for n, a := range s.byName {
		shares[n] = 100 * float64(a.totalUS) / float64(total)
	}
	return shares
}

// unionKeys returns the sorted union of two string-keyed maps' keys.
func unionKeys[A, B any](a map[string]A, b map[string]B) []string {
	seen := make(map[string]bool, len(a)+len(b))
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for k := range b {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// diffSummaries computes every comparison row across the two folds.
func diffSummaries(old, cur *traceSummary, noTiming bool) []diffRow {
	var rows []diffRow

	oldCounters := map[string]uint64{}
	if old.metrics != nil {
		oldCounters = old.metrics.Counters
	}
	curCounters := map[string]uint64{}
	if cur.metrics != nil {
		curCounters = cur.metrics.Counters
	}
	for _, name := range unionKeys(oldCounters, curCounters) {
		rows = addRel(rows, "counter", name, float64(oldCounters[name]), float64(curCounters[name]))
	}

	shOld, shCur := spanShares(old), spanShares(cur)
	for _, name := range unionKeys(old.byName, cur.byName) {
		var oc, cc int
		if a := old.byName[name]; a != nil {
			oc = a.count
		}
		if a := cur.byName[name]; a != nil {
			cc = a.count
		}
		rows = addRel(rows, "spans", name, float64(oc), float64(cc))
		if !noTiming {
			rows = append(rows, diffRow{
				family: "span-share", name: name,
				old: shOld[name], cur: shCur[name],
				drift: math.Abs(shCur[name] - shOld[name]), unit: "pp",
			})
		}
	}

	ro, rc := servedRate(old.execCache), servedRate(cur.execCache)
	rows = append(rows, diffRow{
		family: "cache", name: "run-cache served-rate",
		old: ro, cur: rc, drift: math.Abs(rc - ro), unit: "pp",
	})

	rows = addRel(rows, "traffic", "sim messages", float64(old.msgTotal), float64(cur.msgTotal))
	rows = addRel(rows, "traffic", "sim bytes", float64(old.byteTotal), float64(cur.byteTotal))
	return rows
}

// fmtDrift renders a drift value ("∞" for appear/vanish).
func fmtDrift(d float64, unit string) string {
	if math.IsInf(d, 1) {
		return "∞"
	}
	return fmt.Sprintf("%.2f%s", d, unit)
}

func cmdStatsDiff(oldPath, newPath string, threshold float64, noTiming bool, out, errOut io.Writer) int {
	old, err := foldTraceFile(oldPath)
	if err != nil {
		fmt.Fprintf(errOut, "stats: %v\n", err)
		return 1
	}
	cur, err := foldTraceFile(newPath)
	if err != nil {
		fmt.Fprintf(errOut, "stats: %v\n", err)
		return 1
	}
	rows := diffSummaries(old, cur, noTiming)
	var drifted []diffRow
	for _, r := range rows {
		if r.drift > threshold {
			drifted = append(drifted, r)
		}
	}
	fmt.Fprintf(out, "trace diff %s -> %s: %d series compared, threshold %.2f\n",
		oldPath, newPath, len(rows), threshold)
	if len(drifted) == 0 {
		fmt.Fprintln(out, "no drift beyond threshold")
		return 0
	}
	sort.SliceStable(drifted, func(i, j int) bool {
		if drifted[i].family != drifted[j].family {
			return drifted[i].family < drifted[j].family
		}
		return drifted[i].name < drifted[j].name
	})
	fmt.Fprintf(out, "\n  %-10s %-28s %14s %14s %10s\n", "family", "series", "old", "new", "drift")
	for _, r := range drifted {
		fmt.Fprintf(out, "  %-10s %-28s %14.2f %14.2f %10s\n",
			r.family, r.name, r.old, r.cur, fmtDrift(r.drift, r.unit))
	}
	fmt.Fprintf(errOut, "\nstats: %d series drifted beyond the %.2f threshold\n", len(drifted), threshold)
	return 3
}
