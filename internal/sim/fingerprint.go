package sim

import (
	"flm/internal/runcache"
)

// Fingerprinter is an optional Device capability that makes executions
// content-addressable. DeviceFingerprint returns a canonical encoding of
// the device's identity: its type and every constructor parameter that
// influences behavior beyond the (self, neighbors, input) triple, which
// the executor keys separately. Two devices with equal fingerprints
// installed at the same node of the same system must behave identically
// in every round — the model's determinism requirement makes this
// well-defined, and seeded pseudo-randomness is covered by folding the
// seed into the fingerprint.
//
// Returning "" opts the device out (e.g. a wrapper whose inner device is
// not fingerprintable); systems containing any non-fingerprintable
// device bypass the run cache entirely.
type Fingerprinter interface {
	DeviceFingerprint() string
}

// FingerprintOf returns the device's fingerprint, or "" when the device
// does not support content addressing.
func FingerprintOf(d Device) string {
	if f, ok := d.(Fingerprinter); ok {
		return f.DeviceFingerprint()
	}
	return ""
}

// runCache memoizes whole executions keyed by systemKey. Runs are
// immutable once executed (nothing in the engine writes a Run after
// ExecuteCtx returns), so cached runs are shared, not copied. The L1
// tier is bounded by FLM_CACHE_BUDGET with runCost (see runblob.go)
// accounting the retained bytes of each run; the optional disk tier is
// installed per process with SetRunCacheDir.
var runCache = runcache.New(
	runcache.WithCost(runCost),
	runcache.WithMetrics("sim.run"),
)

// RunCacheStats reports the execution cache's hit/miss counters.
func RunCacheStats() runcache.Stats { return runCache.Stats() }

// ResetRunCache drops every cached execution from memory, for tests and
// memory pressure relief in long sweeps. The disk tier (if installed)
// is untouched; use DisableDiskRunCache to take it out of the path.
func ResetRunCache() { runCache.Reset() }

// SetRunCacheDir installs the on-disk tier of the run cache at dir
// (creating it if needed), so executions memoized by any process against
// the same directory are reusable here. It returns a function restoring
// the previous tier. An empty dir uninstalls the tier.
//
// The library default is no disk tier: `go test` and embedders stay
// hermetic unless they opt in. The flm CLI opts in at startup for every
// command (see cmd/flm), honoring FLM_CACHE_DIR.
func SetRunCacheDir(dir string) (restore func(), err error) {
	if dir == "" {
		return runCache.SetStore(nil, nil), nil
	}
	store, err := runcache.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	return runCache.SetStore(store, RunCodec{}), nil
}

// DisableDiskRunCache removes the disk tier (if any), returning a
// restore function, for measurements that must run cold.
func DisableDiskRunCache() (restore func()) { return runCache.SetStore(nil, nil) }

// RunCacheDir reports the directory of the installed disk tier, or ""
// when the cache is memory-only.
func RunCacheDir() string {
	if st := runCache.Store(); st != nil {
		return st.Dir()
	}
	return ""
}

// SetRunCacheBudget rebounds the L1 byte budget at runtime (negative =
// unbounded, zero = retain nothing), returning a restore function.
func SetRunCacheBudget(bytes int64) (restore func()) { return runCache.SetBudget(bytes) }

// systemKey builds the content-addressed key for one execution:
// (graph structure, per-node device fingerprint and input, rounds,
// recording options). It reports ok=false — after a cheap capability
// scan that touches no strings — when any device opts out.
func systemKey(sys *System, rounds int, opts ExecuteOpts) (string, bool) {
	for _, d := range sys.Devices {
		if _, ok := d.(Fingerprinter); !ok {
			return "", false
		}
	}
	g := sys.G
	h := runcache.NewHasher("sim.run/v1")
	h.Int(g.N())
	for u := 0; u < g.N(); u++ {
		h.Field(g.Name(u))
		for _, v := range g.Neighbors(u) {
			h.Int(v)
		}
		h.Int(-1) // neighbor-list terminator
	}
	for u := 0; u < g.N(); u++ {
		fp := sys.Devices[u].(Fingerprinter).DeviceFingerprint()
		if fp == "" {
			return "", false
		}
		h.Field(fp)
		h.Field(string(sys.Inputs[u]))
	}
	h.Int(rounds)
	h.Int(boolBit(opts.RecordSnapshots))
	h.Int(boolBit(opts.RecordEdges))
	// Delay schedules change delivery, so they are part of the execution's
	// identity. nil and all-inert schedules hash exactly like the
	// pre-asynchrony key so synchronous cache entries stay addressable.
	if opts.Delays != nil && !opts.Delays.Empty() {
		h.Field("delays/v1")
		for _, r := range opts.Delays.Rules {
			if r.Extra <= 0 {
				continue
			}
			h.Field(r.From)
			h.Field(r.To)
			h.Int(r.Round)
			h.Int(r.Extra)
		}
	}
	return h.Sum(), true
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}
