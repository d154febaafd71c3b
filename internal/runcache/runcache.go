// Package runcache is a content-addressed memoization layer for
// deterministic executions. The impossibility engine replays
// near-identical scenarios hundreds of times — every chain link
// re-executes a covering-graph run, every sweep trial re-runs the same
// device panel — and because devices are deterministic, a run is fully
// determined by a canonical fingerprint of its inputs. The cache maps
// such fingerprints to the (immutable) results so identical executions
// happen once and are shared thereafter.
//
// The cache is two-tier:
//
//   - L1 (memory) is a 16-way sharded map keyed by fingerprint prefix,
//     each shard guarded by its own mutex and bounded by its slice of a
//     byte budget (FLM_CACHE_BUDGET, default 256MiB) with LRU eviction.
//     The per-shard bound is enforced under the shard lock, so the
//     whole cache provably never retains more than the budget.
//   - L2 (disk, optional) is a content-addressed blob store (see
//     disk.go) installed with SetStore. An L1 miss consults the store
//     before computing, and a computed value is written back, giving
//     cross-process and CI-to-CI reuse: fingerprints are canonical
//     sha256 digests, so a blob written by one process is a valid
//     answer for every other.
//
// Concurrency contract: Do is single-flight per key. Under parallel
// sweeps (FLM_WORKERS > 1) concurrent callers with the same fingerprint
// block on one in-flight computation instead of duplicating it, and the
// result is published race-cleanly via a channel close. Waiters hold the
// flight's entry directly, so an entry evicted (or Reset away) while
// still being waited on delivers its value to every waiter anyway — a
// later lookup of the same key simply recomputes. Errors are never
// cached: every waiter of the failing flight receives the error (and any
// partial value), then the entry is discarded so a later call retries —
// partial runs stay diagnosable exactly as in the uncached engine.
//
// Enablement: the cache is on by default and can be disabled for
// debugging with FLM_RUNCACHE=off (or 0/false/no), or programmatically
// with SetEnabled. Callers must check Enabled before consulting a cache;
// disabling therefore bypasses lookups without invalidating entries. A
// budget of zero retains nothing (every lookup recomputes) while still
// coalescing concurrent callers — byte-identical results to a disabled
// cache, useful for bounding memory without giving up single-flight.
package runcache

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"flm/internal/obs"
)

// DefaultBudget is the L1 byte budget when FLM_CACHE_BUDGET is unset:
// large enough that the full E1-E20 suite never evicts, small enough
// that a long-running sweep service cannot grow without limit.
const DefaultBudget = 256 << 20

// numShards is the L1 shard count. Fingerprints are sha256 digests, so
// the leading key byte spreads uniformly; 16 shards keep per-shard mutex
// contention negligible at any realistic FLM_WORKERS.
const numShards = 16

// Stats is a point-in-time view of a cache's effectiveness counters.
// Hits/Misses/Waits/DiskHits/... are monotonically growing flows;
// Entries and BytesRetained are current levels.
type Stats struct {
	Hits      uint64 // lookups served from a finished or in-flight L1 entry
	Misses    uint64 // lookups that started a computation
	Waits     uint64 // hits that blocked on a still-in-flight computation
	Entries   int    // entries currently retained, including any still in flight
	Evictions uint64 // resident entries dropped to stay within the budget

	BytesRetained uint64 // accounted cost of the resident L1 entries

	DiskHits         uint64 // L1 misses filled from the disk tier
	DiskMisses       uint64 // disk lookups that found no (valid) blob
	DiskWrites       uint64 // computed values written back to the disk tier
	DiskCorrupt      uint64 // blobs rejected (bad digest/truncated) and deleted
	DiskBytesRead    uint64 // blob payload bytes read on disk hits
	DiskBytesWritten uint64 // blob payload bytes written back
}

// Since returns the counter deltas accumulated after prev was taken —
// the per-command (or per-experiment) view of a cache whose counters are
// process-global and monotonically growing. Entries and BytesRetained
// are levels, not flows; the current value is reported unchanged.
func (s Stats) Since(prev Stats) Stats {
	return Stats{
		Hits:             s.Hits - prev.Hits,
		Misses:           s.Misses - prev.Misses,
		Waits:            s.Waits - prev.Waits,
		Entries:          s.Entries,
		Evictions:        s.Evictions - prev.Evictions,
		BytesRetained:    s.BytesRetained,
		DiskHits:         s.DiskHits - prev.DiskHits,
		DiskMisses:       s.DiskMisses - prev.DiskMisses,
		DiskWrites:       s.DiskWrites - prev.DiskWrites,
		DiskCorrupt:      s.DiskCorrupt - prev.DiskCorrupt,
		DiskBytesRead:    s.DiskBytesRead - prev.DiskBytesRead,
		DiskBytesWritten: s.DiskBytesWritten - prev.DiskBytesWritten,
	}
}

// HitRate is served-without-computing over lookups, in [0,1]; 0 with no
// lookups. Disk hits count as served: the caller got a finished value
// without stepping a device.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.DiskHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.DiskHits) / float64(total)
}

// How reports the way one lookup was served.
type How uint8

const (
	// Computed: this call ran the compute function (an L1 and — if a
	// store is installed — L2 miss).
	Computed How = iota
	// Hit: served from a finished L1 entry.
	Hit
	// Waited: served from an in-flight L1 entry after blocking on the
	// computing caller (the single-flight wait).
	Waited
	// DiskHit: L1 missed; the value was decoded from the disk tier
	// without running compute.
	DiskHit
)

// String names the outcome for span attributes and logs.
func (h How) String() string {
	switch h {
	case Hit:
		return "hit"
	case Waited:
		return "wait"
	case DiskHit:
		return "disk"
	default:
		return "miss"
	}
}

// entry is one flight: done is closed exactly once, after val/err are
// set, which is the happens-before edge that publishes them to waiters.
// A completed, retained entry additionally sits on its shard's LRU list
// (resident == true); in-flight entries live in the map but never on
// the list, so eviction cannot touch a flight that still has waiters
// piling onto it.
type entry struct {
	key  string
	done chan struct{}
	val  any
	err  error

	cost       int64
	resident   bool
	prev, next *entry // shard LRU list links (most recent at head)
}

// shard is one lock domain of the L1 map: its own entries, its own LRU
// order, its own slice of the byte budget. The budget invariant —
// bytes <= budget at every unlock — is local to the shard, which is
// what makes the global bound (sum of shards) provable without a global
// lock.
type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
	head    *entry // most recently used resident entry
	tail    *entry // least recently used resident entry
	bytes   int64
	budget  int64 // < 0 unbounded, 0 retain nothing
}

// Cache is a single-flight two-tier memoization table keyed by
// canonical fingerprints. The zero value is not usable; use New.
type Cache struct {
	shards []*shard
	cost   func(any) int64
	tier2  atomic.Pointer[tier2]

	hits      atomic.Uint64
	misses    atomic.Uint64
	waits     atomic.Uint64
	evictions atomic.Uint64

	diskHits    atomic.Uint64
	diskMisses  atomic.Uint64
	diskWrites  atomic.Uint64
	diskCorrupt atomic.Uint64
	diskRead    atomic.Uint64
	diskWritten atomic.Uint64

	// Optional observability mirrors (nil unless WithMetrics): atomic
	// counters/gauges only, so the disabled-tracing engine stays on its
	// zero-alloc path.
	mEvict, mDiskHit, mDiskMiss, mDiskWrite *obs.Counter
	gBytes, gEntries                        *obs.Gauge
}

// tier2 pairs a blob store with the codec that turns cached values into
// blobs and back. Swapped atomically so SetStore is safe against
// concurrent Do calls.
type tier2 struct {
	store *Store
	codec Codec
}

// Codec serializes cache values for the disk tier. Encode reports
// ok=false for values the codec cannot represent (those stay L1-only);
// Decode failures are treated as corrupt blobs (deleted, then
// recomputed).
type Codec interface {
	Encode(v any) (data []byte, ok bool)
	Decode(data []byte) (any, error)
}

// Option configures a Cache at construction.
type Option func(*cacheConfig)

type cacheConfig struct {
	budget  int64
	haveBud bool
	cost    func(any) int64
	metrics string
}

// WithBudget sets the L1 byte budget, overriding FLM_CACHE_BUDGET.
// Negative is unbounded; zero retains nothing (single-flight only).
func WithBudget(bytes int64) Option {
	return func(c *cacheConfig) { c.budget = bytes; c.haveBud = true }
}

// WithCost sets the byte-cost estimator used for budget accounting.
// Without it, strings and byte slices are costed by length and
// everything else at a flat 512 bytes — callers caching richer values
// (the engine caches whole runs) should install a real estimator.
func WithCost(f func(v any) int64) Option {
	return func(c *cacheConfig) { c.cost = f }
}

// WithMetrics mirrors the cache's eviction/disk counters and retained
// bytes/entries gauges into the internal/obs registry under
// "runcache.<name>.*", so traces carry them in the final metrics line.
func WithMetrics(name string) Option {
	return func(c *cacheConfig) { c.metrics = name }
}

// New returns an empty cache. With no options: the FLM_CACHE_BUDGET
// byte budget (default 256MiB), default cost model, no disk tier, no
// metrics.
func New(opts ...Option) *Cache {
	cfg := cacheConfig{cost: defaultCost}
	for _, o := range opts {
		o(&cfg)
	}
	if !cfg.haveBud {
		cfg.budget = envBudget()
	}
	c := &Cache{
		shards: make([]*shard, numShards),
		cost:   cfg.cost,
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			entries: make(map[string]*entry),
			budget:  shardSlice(cfg.budget),
		}
	}
	if cfg.metrics != "" {
		p := "runcache." + cfg.metrics
		c.mEvict = obs.NewCounter(p + ".evict")
		c.mDiskHit = obs.NewCounter(p + ".disk.hit")
		c.mDiskMiss = obs.NewCounter(p + ".disk.miss")
		c.mDiskWrite = obs.NewCounter(p + ".disk.write")
		c.gBytes = obs.NewGauge(p + ".bytes")
		c.gEntries = obs.NewGauge(p + ".entries")
	}
	return c
}

// shardSlice divides the byte budget across shards. Unbounded stays
// unbounded; a bounded budget is floored per shard so the shard sums
// never exceed the requested total.
func shardSlice(budget int64) int64 {
	if budget < 0 {
		return -1
	}
	return budget / numShards
}

// defaultCost is the fallback byte-cost model: exact for the flat value
// shapes tests use, a flat conservative guess otherwise.
func defaultCost(v any) int64 {
	switch x := v.(type) {
	case string:
		return int64(len(x)) + 16
	case []byte:
		return int64(len(x)) + 24
	default:
		return 512
	}
}

// shard routes a key to its lock domain by fingerprint prefix. Keys are
// sha256 digests in the engine, so the first byte is uniform; arbitrary
// test keys just cluster, which is harmless.
func (c *Cache) shard(key string) *shard {
	if len(key) == 0 {
		return c.shards[0]
	}
	return c.shards[int(key[0])%numShards]
}

// SetStore installs (or, with a nil store, removes) the disk tier and
// returns a function restoring the previous one, for defer-style use.
// Safe to call concurrently with lookups: in-progress flights keep the
// tier they started with.
func (c *Cache) SetStore(store *Store, codec Codec) (restore func()) {
	var next *tier2
	if store != nil && codec != nil {
		next = &tier2{store: store, codec: codec}
	}
	prev := c.tier2.Swap(next)
	return func() { c.tier2.Store(prev) }
}

// Store returns the currently installed disk tier's store, or nil.
func (c *Cache) Store() *Store {
	if t2 := c.tier2.Load(); t2 != nil {
		return t2.store
	}
	return nil
}

// Do returns the value cached under key, computing it with compute on
// first use, and reports how the lookup was served (miss / hit / wait /
// disk). Concurrent callers with the same key share one in-flight
// computation. A compute that errors (or panics) is handed to every
// waiter of that flight and then forgotten, so errors are never served
// from cache. The cached value is shared by all callers and must be
// treated as immutable.
func (c *Cache) Do(key string, compute func() (any, error)) (any, How, error) {
	sh := c.shard(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		if e.resident {
			sh.moveToFront(e)
		}
		sh.mu.Unlock()
		c.hits.Add(1)
		how := Hit
		select {
		case <-e.done:
		default:
			how = Waited
			c.waits.Add(1)
			<-e.done
		}
		return e.val, how, e.err
	}
	e := &entry{key: key, done: make(chan struct{})}
	sh.entries[key] = e
	sh.mu.Unlock()

	// This caller owns the flight. Try the disk tier before computing;
	// waiters that piled up behind the entry are served either way.
	if t2 := c.tier2.Load(); t2 != nil {
		if v, ok := c.diskLookup(t2, key); ok {
			e.val = v
			c.finish(sh, e, true)
			return v, DiskHit, nil
		}
	}

	c.misses.Add(1)
	finished := false
	defer func() {
		// Runs on the normal return path and when compute panics: the
		// failed flight is discarded (finished == false or err != nil)
		// and the done close releases any waiters either way.
		c.finish(sh, e, finished && e.err == nil)
	}()
	e.val, e.err = compute()
	finished = true
	if e.err == nil {
		if t2 := c.tier2.Load(); t2 != nil {
			c.diskWrite(t2, key, e.val)
		}
	}
	return e.val, Computed, e.err
}

// diskLookup consults the disk tier for key, decoding a verified blob.
// Corrupt or undecodable blobs are deleted and reported as misses, so a
// damaged cache directory degrades to recomputation, never to a wrong
// or failing lookup.
func (c *Cache) diskLookup(t2 *tier2, key string) (any, bool) {
	data, err := t2.store.Get(key)
	switch {
	case err == nil:
		v, derr := t2.codec.Decode(data)
		if derr != nil {
			c.diskCorrupt.Add(1)
			c.diskMisses.Add(1)
			incCounter(c.mDiskMiss)
			t2.store.Delete(key)
			return nil, false
		}
		c.diskHits.Add(1)
		c.diskRead.Add(uint64(len(data)))
		incCounter(c.mDiskHit)
		return v, true
	case isCorrupt(err):
		c.diskCorrupt.Add(1)
		t2.store.Delete(key) // Put skips existing files; clear the way for the rewrite
		fallthrough
	default:
		c.diskMisses.Add(1)
		incCounter(c.mDiskMiss)
		return nil, false
	}
}

// diskWrite serializes a computed value into the disk tier. Encode
// opting out (ok=false) and write errors are both silent: the disk tier
// is an accelerator, never a correctness dependency.
func (c *Cache) diskWrite(t2 *tier2, key string, v any) {
	data, ok := t2.codec.Encode(v)
	if !ok {
		return
	}
	if err := t2.store.Put(key, data); err == nil {
		c.diskWrites.Add(1)
		c.diskWritten.Add(uint64(len(data)))
		incCounter(c.mDiskWrite)
	}
}

// finish completes a flight: on retain it promotes the entry to
// resident (accounting its cost and evicting LRU entries to stay within
// the shard budget), otherwise it discards it. Either way the done
// close publishes val/err to every waiter. The entry may already have
// been removed by Reset; then there is nothing to retain.
func (c *Cache) finish(sh *shard, e *entry, retain bool) {
	sh.mu.Lock()
	if cur, ok := sh.entries[e.key]; ok && cur == e {
		fits := retain && sh.budget != 0
		if fits {
			e.cost = c.cost(e.val)
			if sh.budget >= 0 && e.cost > sh.budget {
				fits = false // larger than the whole shard slice: unretainable
			}
		}
		if fits {
			e.resident = true
			sh.pushFront(e)
			sh.bytes += e.cost
			addGauge(c.gBytes, e.cost)
			addGauge(c.gEntries, 1)
			c.evictLocked(sh)
		} else {
			delete(sh.entries, e.key)
		}
	}
	sh.mu.Unlock()
	close(e.done)
}

// evictLocked drops least-recently-used resident entries until the
// shard is back inside its byte budget. Callers hold sh.mu. In-flight
// entries are never on the list, so a flight with waiters can never be
// computed twice by eviction pressure.
func (c *Cache) evictLocked(sh *shard) {
	for sh.tail != nil && sh.budget >= 0 && sh.bytes > sh.budget {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.entries, victim.key)
		sh.bytes -= victim.cost
		c.evictions.Add(1)
		incCounter(c.mEvict)
		addGauge(c.gBytes, -victim.cost)
		addGauge(c.gEntries, -1)
	}
}

// incCounter and addGauge tolerate the nil metrics of a cache built
// without WithMetrics.
func incCounter(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

func addGauge(g *obs.Gauge, delta int64) {
	if g != nil {
		g.Add(delta)
	}
}

// moveToFront marks e as most recently used.
func (sh *shard) moveToFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Stats returns the current counters. Entries counts retained entries,
// including any still in flight; BytesRetained is the accounted cost of
// the resident ones.
func (c *Cache) Stats() Stats {
	var entries int
	var bytes int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		entries += len(sh.entries)
		bytes += sh.bytes
		sh.mu.Unlock()
	}
	return Stats{
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		Waits:            c.waits.Load(),
		Entries:          entries,
		Evictions:        c.evictions.Load(),
		BytesRetained:    uint64(bytes),
		DiskHits:         c.diskHits.Load(),
		DiskMisses:       c.diskMisses.Load(),
		DiskWrites:       c.diskWrites.Load(),
		DiskCorrupt:      c.diskCorrupt.Load(),
		DiskBytesRead:    c.diskRead.Load(),
		DiskBytesWritten: c.diskWritten.Load(),
	}
}

// Reset drops all L1 entries and zeroes the counters. In-flight
// computations finish normally but their results are not retained. The
// disk tier is untouched: Reset makes the *memory* cold. Callers that
// need a fully cold run must also bypass or uninstall the store — see
// SetStore.
func (c *Cache) Reset() {
	for _, sh := range c.shards {
		sh.mu.Lock()
		var residents int64
		for e := sh.head; e != nil; e = e.next {
			residents++
		}
		sh.entries = make(map[string]*entry)
		sh.head, sh.tail = nil, nil
		addGauge(c.gBytes, -sh.bytes)
		addGauge(c.gEntries, -residents)
		sh.bytes = 0
		sh.mu.Unlock()
	}
	c.hits.Store(0)
	c.misses.Store(0)
	c.waits.Store(0)
	c.evictions.Store(0)
	c.diskHits.Store(0)
	c.diskMisses.Store(0)
	c.diskWrites.Store(0)
	c.diskCorrupt.Store(0)
	c.diskRead.Store(0)
	c.diskWritten.Store(0)
}

// override is the SetEnabled state: 0 defer to env, 1 force on, 2 force
// off.
var override atomic.Int32

var envOnce sync.Once
var envDefault bool

func envEnabled() bool {
	envOnce.Do(func() {
		switch strings.ToLower(os.Getenv("FLM_RUNCACHE")) {
		case "0", "off", "false", "no":
			envDefault = false
		default:
			envDefault = true
		}
	})
	return envDefault
}

var budOnce sync.Once
var budDefault int64

// envBudget reads FLM_CACHE_BUDGET once: a byte count with an optional
// K/M/G (or KiB/MiB/GiB) binary-unit suffix, "unbounded" for no limit,
// 0 to retain nothing. Malformed values fall back to DefaultBudget.
func envBudget() int64 {
	budOnce.Do(func() {
		b, ok := ParseBudget(os.Getenv("FLM_CACHE_BUDGET"))
		if !ok {
			b = DefaultBudget
		}
		budDefault = b
	})
	return budDefault
}

// ParseBudget parses a FLM_CACHE_BUDGET value. The empty string is the
// default budget; "unbounded" (or any negative number) lifts the bound;
// otherwise a non-negative integer with an optional binary-unit suffix
// (K/KB/KiB, M/MB/MiB, G/GB/GiB, case-insensitive). A size past
// MaxInt64 bytes is malformed (ok false), not wrapped.
func ParseBudget(s string) (bytes int64, ok bool) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" {
		return DefaultBudget, true
	}
	if s == "unbounded" || s == "unlimited" {
		return -1, true
	}
	mult := int64(1)
	for _, suf := range []struct {
		text string
		mult int64
	}{
		{"kib", 1 << 10}, {"kb", 1 << 10}, {"k", 1 << 10},
		{"mib", 1 << 20}, {"mb", 1 << 20}, {"m", 1 << 20},
		{"gib", 1 << 30}, {"gb", 1 << 30}, {"g", 1 << 30},
	} {
		if strings.HasSuffix(s, suf.text) {
			s = strings.TrimSuffix(s, suf.text)
			mult = suf.mult
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, false
	}
	if n < 0 {
		return -1, true
	}
	if n > math.MaxInt64/mult {
		return 0, false
	}
	return n * mult, true
}

// Enabled reports whether caches should be consulted: a SetEnabled
// override if present, otherwise the FLM_RUNCACHE environment default
// (on unless set to 0/off/false/no).
func Enabled() bool {
	switch override.Load() {
	case 1:
		return true
	case 2:
		return false
	}
	return envEnabled()
}

// SetEnabled overrides the environment default and returns a function
// restoring the previous state, for defer-style use in tests and the
// CLI.
func SetEnabled(on bool) (restore func()) {
	prev := override.Load()
	if on {
		override.Store(1)
	} else {
		override.Store(2)
	}
	return func() { override.Store(prev) }
}

// Hasher builds collision-resistant cache keys from canonical field
// sequences. Every field is length-delimited before hashing, so two
// different field sequences can never produce the same byte stream; the
// sha256 digest then makes accidental key collisions negligible — which
// matters, because a colliding key would silently substitute one run
// for another.
type Hasher struct {
	h   hash.Hash
	buf [binary.MaxVarintLen64]byte
}

// NewHasher starts a key with a domain-separation tag (e.g.
// "sim.run/v1"); bump the version when the keyed content changes shape.
func NewHasher(domain string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.Field(domain)
	return h
}

// Field appends one length-delimited string field.
func (h *Hasher) Field(s string) {
	n := binary.PutUvarint(h.buf[:], uint64(len(s)))
	h.h.Write(h.buf[:n])
	io.WriteString(h.h, s)
}

// Int appends one integer field.
func (h *Hasher) Int(v int) { h.Field(strconv.Itoa(v)) }

// Sum returns the finished key.
func (h *Hasher) Sum() string { return string(h.h.Sum(nil)) }
