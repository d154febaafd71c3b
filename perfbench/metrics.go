package main

import (
	"time"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are the metrics every --trace 0 run reports.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"retained_mb", "MB", "lower"},
}

// perLayerDefs are the metrics every --trace 1 run reports, on every
// workload (0 where the layer does no work).
var perLayerDefs = []metricDef{
	{"sim.execute_self_ms_per_op", "ms", "lower"},
	{"sim.executions_per_op", "count", "lower"},
	{"sim.messages_per_op", "count", "lower"},
	{"sim.bytes_per_op", "B", "lower"},
	{"sim.async_lost_per_op", "count", "lower"},
	{"device.step_ms_per_op", "ms", "lower"},
	{"device.steps_per_op", "count", "lower"},
	{"core.splice_self_ms_per_op", "ms", "lower"},
	{"core.splices_per_op", "count", "lower"},
	{"core.links_per_proof", "count", "lower"},
	{"core.splice_cache_hit_rate", "ratio", "higher"},
	{"graph.cover_nodes_per_proof", "count", "lower"},
	{"graph.setup_ms", "ms", "lower"},
	{"clocksync.theorem8_ms_per_op", "ms", "lower"},
	{"clocksync.theorem8_share", "ratio", "lower"},
	{"runcache.l1_hit_rate", "ratio", "higher"},
	{"runcache.l1_hits_per_op", "count", "higher"},
	{"runcache.l1_misses_per_op", "count", "lower"},
	{"runcache.bypass_per_op", "count", "lower"},
	{"runcache.waits_per_op", "count", "lower"},
	{"runcache.evictions_per_op", "count", "lower"},
	{"runcache.retained_mb", "MB", "lower"},
	{"runcache.disk_hit_rate", "ratio", "higher"},
	{"runcache.disk_read_mb_per_op", "MB", "lower"},
	{"runcache.disk_write_mb", "MB", "lower"},
	{"runcache.disk_corrupt", "count", "lower"},
	{"sweep.trials_per_op", "count", "lower"},
	{"sweep.busy_share", "ratio", "higher"},
	{"sweep.trial_faults", "count", "lower"},
	{"chaos.findings_per_op", "count", "higher"},
	{"chaos.shrink_evals_per_op", "count", "lower"},
	{"chaos.shrink_ms_per_op", "ms", "lower"},
	{"go.gc_cycles_per_op", "count", "lower"},
	{"go.gc_pause_ms_per_op", "ms", "lower"},
	{"go.peak_rss_mb", "MB", "lower"},
	{"host.ref_ms", "ms", "lower"},
	{"wall.ops_per_s", "1/s", "higher"},
	{"wall.op_p50_ms", "ms", "lower"},
	{"obs.overhead_pct", "%", "lower"},
}

// metricSet fills values by name, taking units from defs.
func metricSet(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// endToEnd computes the end-to-end metrics from the measured untraced
// ops and the set-up repetitions' drift-corrected times (seconds).
func endToEnd(plain []sample, setups []float64) map[string]metricValue {
	corr := make([]float64, len(plain))
	var alloc float64
	retained := make([]float64, len(plain))
	for i, s := range plain {
		corr[i] = s.corr
		alloc += s.alloc
		retained[i] = s.retained
	}
	n := float64(len(plain))
	v := map[string]float64{
		"setup_s":         median(setups),
		"ops_per_s":       n / (sum(corr) / 1000),
		"op_p50_ms":       quantile(corr, 0.5),
		"op_p90_ms":       quantile(corr, 0.9),
		"alloc_mb_per_op": alloc / n / 1e6,
		"retained_mb":     median(retained) / 1e6,
	}
	return metricSet(endToEndDefs, v)
}

// diagnostics are the uncorrected and host figures of an untraced run,
// printed next to the end-to-end metrics: raw wall-clock throughput,
// latency and set-up, the reference kernel's speed, the Go runtime's
// GC work, and the fail ratio.
func diagnostics(h *harness, plain []sample, setupsRaw []float64) map[string]metricValue {
	raw := make([]float64, len(plain))
	var gcs, pause float64
	for i, s := range plain {
		raw[i] = s.raw
		gcs += float64(s.gcs)
		pause += float64(s.pauseNs)
	}
	n := float64(len(plain))
	return map[string]metricValue{
		"wall.ops_per_s":        {n / (sum(raw) / 1000), "1/s"},
		"wall.op_p50_ms":        {quantile(raw, 0.5), "ms"},
		"wall.op_p90_ms":        {quantile(raw, 0.9), "ms"},
		"wall.setup_s":          {median(setupsRaw), "s"},
		"host.ref_ms":           {median(h.refs), "ms"},
		"go.gc_cycles_per_op":   {gcs / n, "count"},
		"go.gc_pause_ms_per_op": {pause / n / float64(time.Millisecond), "ms"},
		"go.peak_rss_mb":        {peakRSSMB(), "MB"},
		"fail_ratio":            {float64(h.failed) / float64(h.attempted), "ratio"},
		"ops":                   {n, "count"},
	}
}

// perLayer computes the per-layer metrics of a traced run: layer times
// and counts per traced op, the Go runtime and host figures from the
// run's untraced passes, and the tracing overhead from the pairs of
// (traced, untraced) runs of the same op.
func perLayer(h *harness, traced []sample, pairs [][2]float64, diag map[string]metricValue) map[string]metricValue {
	var t layerSample
	var opMS float64
	for _, s := range traced {
		l := s.layer
		opMS += l.opMS
		t.simSelfMS += l.simSelfMS
		t.executions += l.executions
		t.deviceMS += l.deviceMS
		t.deviceSteps += l.deviceSteps
		t.messages += l.messages
		t.bytes += l.bytes
		t.asyncLost += l.asyncLost
		t.spliceSelfMS += l.spliceSelfMS
		t.splices += l.splices
		t.links += l.links
		t.spliceHits += l.spliceHits
		t.spliceLookups += l.spliceLookups
		t.theorem8MS += l.theorem8MS
		t.l1Hits += l.l1Hits
		t.l1Misses += l.l1Misses
		t.l1Waits += l.l1Waits
		t.evictions += l.evictions
		t.bypass += l.bypass
		t.diskHits += l.diskHits
		t.diskMisses += l.diskMisses
		t.diskRead += l.diskRead
		t.sweepTrials += l.sweepTrials
		t.sweepFaults += l.sweepFaults
		t.sweepBusyUS += l.sweepBusyUS
		t.sweepWallUS += l.sweepWallUS
		t.shrinkEvals += l.shrinkEvals
		t.shrinkMS += l.shrinkMS
		t.stats.coreProofs += l.stats.coreProofs
		t.stats.coverNodes += l.stats.coverNodes
		t.stats.findings += l.stats.findings
	}
	retained := make([]float64, len(traced))
	for i, s := range traced {
		retained[i] = float64(s.layer.l1Retained)
	}
	n := float64(len(traced))
	per := func(x float64) float64 { return x / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var tracedMS, plainMS float64
	for _, p := range pairs {
		tracedMS += p[0]
		plainMS += p[1]
	}
	v := map[string]float64{
		"sim.execute_self_ms_per_op":   per(t.simSelfMS),
		"sim.executions_per_op":        per(float64(t.executions)),
		"sim.messages_per_op":          per(float64(t.messages)),
		"sim.bytes_per_op":             per(float64(t.bytes)),
		"sim.async_lost_per_op":        per(float64(t.asyncLost)),
		"device.step_ms_per_op":        per(t.deviceMS),
		"device.steps_per_op":          per(float64(t.deviceSteps)),
		"core.splice_self_ms_per_op":   per(t.spliceSelfMS),
		"core.splices_per_op":          per(float64(t.splices)),
		"core.links_per_proof":         ratio(float64(t.links), float64(t.stats.coreProofs)),
		"core.splice_cache_hit_rate":   ratio(float64(t.spliceHits), float64(t.spliceLookups)),
		"graph.cover_nodes_per_proof":  ratio(float64(t.stats.coverNodes), float64(t.stats.coreProofs)),
		"graph.setup_ms":               h.graphMS,
		"clocksync.theorem8_ms_per_op": per(t.theorem8MS),
		"clocksync.theorem8_share":     ratio(t.theorem8MS, opMS),
		"runcache.l1_hit_rate":         ratio(float64(t.l1Hits), float64(t.l1Hits+t.l1Misses)),
		"runcache.l1_hits_per_op":      per(float64(t.l1Hits)),
		"runcache.l1_misses_per_op":    per(float64(t.l1Misses)),
		"runcache.bypass_per_op":       per(float64(t.bypass)),
		"runcache.waits_per_op":        per(float64(t.l1Waits)),
		"runcache.evictions_per_op":    per(float64(t.evictions)),
		"runcache.retained_mb":         median(retained) / 1e6,
		"runcache.disk_hit_rate":       ratio(float64(t.diskHits), float64(t.diskHits+t.diskMisses)),
		"runcache.disk_read_mb_per_op": per(float64(t.diskRead)) / 1e6,
		"runcache.disk_write_mb":       float64(h.diskWritten-h.diskMark) / 1e6,
		"runcache.disk_corrupt":        float64(h.diskCorrupt),
		"sweep.trials_per_op":          per(float64(t.sweepTrials)),
		"sweep.busy_share":             ratio(float64(t.sweepBusyUS), float64(t.sweepWallUS)),
		"sweep.trial_faults":           float64(t.sweepFaults),
		"chaos.findings_per_op":        per(float64(t.stats.findings)),
		"chaos.shrink_evals_per_op":    per(float64(t.shrinkEvals)),
		"chaos.shrink_ms_per_op":       per(t.shrinkMS),
		"go.gc_cycles_per_op":          diag["go.gc_cycles_per_op"].Value,
		"go.gc_pause_ms_per_op":        diag["go.gc_pause_ms_per_op"].Value,
		"go.peak_rss_mb":               diag["go.peak_rss_mb"].Value,
		"host.ref_ms":                  diag["host.ref_ms"].Value,
		"wall.ops_per_s":               diag["wall.ops_per_s"].Value,
		"wall.op_p50_ms":               diag["wall.op_p50_ms"].Value,
		"obs.overhead_pct":             (ratio(tracedMS, plainMS) - 1) * 100,
	}
	return metricSet(perLayerDefs, v)
}
