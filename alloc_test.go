//go:build !race

package flm_test

import (
	"fmt"
	"math/big"
	"runtime"
	"strings"
	"testing"

	"flm"
	"flm/internal/clockfn"
	"flm/internal/clocksync"
	"flm/internal/runcache"
)

// allocCanaries are the hot-path allocation gates. Each workload isolates
// one engine path, and its ceilings are its recorded allocs/op and B/op
// baseline plus 10%: allocation counts of a cold run are nearly
// deterministic, so unlike wall time they can gate on a shared machine.
//
// The race detector's instrumentation allocates on its own (under -race,
// B/op rose 19.8% on timedsim-tick and 10.2% on async-sched, past both
// ceilings), so this file is built only without it.
var allocCanaries = []struct {
	id        string
	maxAllocs uint64
	maxBytes  uint64
	run       func() error
}{
	{"timedsim-tick", 2942, 562259, timedTick},
	{"timedsim-midpoint", 12808, 2126767, timedMidpoint},
	{"timedsim-trimmed", 5196, 696925, timedTrimmed},
	{"eig-resolve", 17620, 3001724, eigResolve},
	{"async-sched", 17207, 891739, asyncSched},
	{"cache-evict", 58525, 3214437, cacheEvict},
	{"splice-record", 58539, 10117430, spliceRecord},
	{"dolev-overlay", 811, 90896, dolevOverlay()},
}

// TestAllocCanaries fails when a workload allocates more objects or bytes
// than its ceiling; -v logs each measurement next to its ceiling.
func TestAllocCanaries(t *testing.T) {
	for _, c := range allocCanaries {
		t.Run(c.id, func(t *testing.T) {
			allocs, bytes, err := measureAllocs(c.run)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%8d allocs/op (ceiling %8d)  %9d B/op (ceiling %9d)", allocs, c.maxAllocs, bytes, c.maxBytes)
			if allocs > c.maxAllocs {
				t.Errorf("%d allocs/op exceeds the ceiling of %d", allocs, c.maxAllocs)
			}
			if bytes > c.maxBytes {
				t.Errorf("%d B/op exceeds the ceiling of %d", bytes, c.maxBytes)
			}
		})
	}
}

var allocSink []byte

// TestMeasureReportsPerOp: measureAllocs bills the measured run, and
// only it, so a canary can neither pass by measuring nothing nor be
// charged for its unmeasured first run.
func TestMeasureReportsPerOp(t *testing.T) {
	calls := 0
	allocs, bytes, err := measureAllocs(func() error {
		calls++
		allocSink = make([]byte, 1<<16)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("fn called %d times, want 2 (one unmeasured, one measured)", calls)
	}
	if allocs < 1 || bytes < 1<<16 || bytes >= 2<<16 {
		t.Errorf("measured %d allocs and %d B for one 64 KiB allocation", allocs, bytes)
	}
}

// measureAllocs runs fn from a cold run cache behind a GC fence and
// returns the heap objects and bytes it allocated. Hits within the run —
// chain builders re-splicing the same cover run — are still part of the
// measured workload, so the cache is on whatever FLM_RUNCACHE says: the
// ceilings are set with it on, and splice-record allocates 24% more
// without it. An unmeasured run goes first: the first run in a process
// also fills process-wide tables that no later run pays for (EIG shapes
// are interned by fingerprint for the life of the process, about 590
// allocs on eig-resolve), and the ceilings' baselines, each the fastest
// of three runs, exclude them too.
func measureAllocs(fn func() error) (allocs, bytes uint64, err error) {
	defer runcache.SetEnabled(true)()
	if err = fn(); err != nil {
		return 0, 0, err
	}
	flm.ResetRunCaches()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

// timedTick isolates the timed simulator's tick loop: one Theorem 8 ring
// of chase devices, dominated by per-tick scheduling and message
// delivery, all of it inline int64 clockfn.Q arithmetic.
func timedTick() error { return clockRing(flm.NewChaseClock(ringEnvelope)) }

// timedMidpoint isolates the averaging devices' registers: the same
// ring of midpoint devices, whose corrections halve every tick and
// outgrow int64, so every tick parses, averages and formats multi-word
// dyadic values in the devices' clockfn.Reg registers.
func timedMidpoint() error { return clockRing(flm.NewMidpointClock(ringEnvelope)) }

// timedTrimmed isolates the trimmed-midpoint device and the timed
// simulator's sampling: E8's adequate-side measurement, K4 with f = 1
// under a scripted clock liar, read at times 8, 32 and 64 of one run.
func timedTrimmed() error {
	params := flm.SyncParams{
		P:      flm.RatIdentity(),
		Q:      flm.NewRatClock(3, 2, 0, 1),
		L:      ringEnvelope,
		U:      flm.LinearClock{Rate: 1, Off: 4},
		Alpha:  1,
		TPrime: big.NewRat(4, 1),
		Delta:  big.NewRat(1, 2),
	}
	k4 := flm.Complete(4)
	clocks := []clockfn.RatLinear{
		flm.RatIdentity(), flm.NewRatClock(3, 2, 0, 1), flm.NewRatClock(5, 4, 1, 4), flm.RatIdentity(),
	}
	builders := map[string]flm.SyncBuilder{}
	for _, name := range k4.Names() {
		builders[name] = clocksync.NewTrimmedMidpoint(params.L, 1)
	}
	samples, err := clocksync.MeasureAdequateSync(params, k4, clocks, builders, "p3",
		clocksync.ClockLiarScript(k4, "p3", 64),
		[]*big.Rat{big.NewRat(8, 1), big.NewRat(32, 1), big.NewRat(64, 1)})
	if err != nil {
		return err
	}
	if last := samples[len(samples)-1]; last.MeasuredGap >= last.TrivialGap {
		return fmt.Errorf("trimmed sync bench: gap %.3f not below the trivial %.3f", last.MeasuredGap, last.TrivialGap)
	}
	return nil
}

// ringEnvelope is the lower envelope l(t) = t of clockRing's claim.
var ringEnvelope = flm.LinearClock{Rate: 1}

// clockRing proves Theorem 8 against b on every node of the triangle,
// for p = t, q = 1.5t, l = t, u = t + 4, α = 1.5 and t' = 4.
func clockRing(b flm.SyncBuilder) error {
	params := flm.SyncParams{
		P:      flm.RatIdentity(),
		Q:      flm.NewRatClock(3, 2, 0, 1),
		L:      ringEnvelope,
		U:      flm.LinearClock{Rate: 1, Off: 4},
		Alpha:  1.5,
		TPrime: big.NewRat(4, 1),
		Delta:  big.NewRat(1, 2),
	}
	r, err := flm.ProveClockSync(params, map[string]flm.SyncBuilder{"a": b, "b": b, "c": b})
	if err != nil {
		return err
	}
	if !r.Contradicted() {
		return fmt.Errorf("clock ring bench: expected a Theorem 8 violation")
	}
	return nil
}

// eigResolve isolates the EIG tree: K9, f=2 honest trials over 16
// distinct input patterns, dominated by flat-tree claim absorption and
// bottom-up resolution.
func eigResolve() error {
	g := flm.Complete(9)
	honest := flm.NewEIG(2, g.Names())
	for bits := 0; bits < 16; bits++ {
		inputs := map[string]flm.Input{}
		for i, name := range g.Names() {
			inputs[name] = flm.BoolInput(bits&(1<<uint(i%4)) != 0)
		}
		trial := flm.ByzantineTrial{G: g, Inputs: inputs, Honest: honest, Rounds: flm.EIGRounds(2)}
		_, _, rep, err := trial.RunWith(flm.ExecuteOpts{})
		if err != nil {
			return err
		}
		if !rep.OK() {
			return fmt.Errorf("eig resolve bench: trial failed: %v", rep.Err())
		}
	}
	return nil
}

// asyncSched isolates the asynchronous delivery ring: the FLP Section 4
// initdead protocol on K7 t=3 under seeded delay schedules, one dead node
// per trial, eight distinct (seed, inputs, dead) combos so every
// execution is a run-cache miss. Dominated by delay-table lookups and
// ring-slot wiping in the executor's delivery loop.
func asyncSched() error {
	g := flm.Complete(7)
	names := g.Names()
	honest := flm.NewInitdead(3)
	const maxDelay = 2
	rounds := flm.InitdeadRounds(maxDelay)
	for v := 0; v < 8; v++ {
		delays := flm.SeededDelays(int64(v+1), names, rounds, maxDelay)
		p := flm.Protocol{Builders: map[string]flm.Builder{}, Inputs: map[string]flm.Input{}}
		var live []string
		for i, name := range names {
			p.Inputs[name] = flm.BoolInput((i+v)%2 == 0)
			if i == v%7 {
				p.Builders[name] = flm.InitiallyDead()
			} else {
				p.Builders[name] = honest
				live = append(live, name)
			}
		}
		sys, err := flm.NewSystem(g, p)
		if err != nil {
			return err
		}
		run, err := flm.ExecuteWith(sys, rounds, flm.ExecuteOpts{Delays: delays})
		if err != nil {
			return err
		}
		if rep := flm.CheckInitdead(run, live); !rep.OK() {
			return fmt.Errorf("async-sched bench: seed %d: %v", v+1, rep.Err())
		}
	}
	return nil
}

// spliceRecord isolates the full-recording path: Theorem 4's general
// node bound on K6 (f=2, blocks {0,1}/{2,3}/{4,5}) against the firing
// squad via EIG, 32 rounds. Every splice records a snapshot per node per
// round, and the EIG trees stop growing once decided, so most rounds
// repeat the state of the round before.
func spliceRecord() error {
	g := flm.Complete(6)
	b := flm.NewFiringSquad(2, g.Names())
	builders := map[string]flm.Builder{}
	for _, name := range g.Names() {
		builders[name] = b
	}
	cr, err := flm.ProveFiringSquadNodes(g, 2, []int{0, 1}, []int{2, 3}, []int{4, 5}, builders, "via-eig", 32)
	if err != nil {
		return err
	}
	if !cr.Contradicted() {
		return fmt.Errorf("splice-record bench: expected a Theorem 4 violation")
	}
	return nil
}

// dolevOverlay isolates the Dolev overlay's wire: one decision-only EIG
// trial over the router on Wheel(7) with an equivocating rim node, where
// nearly every allocation is a piece being parsed, routed or framed. The
// router is built once, outside the measured run.
func dolevOverlay() func() error {
	g := flm.Wheel(7)
	r, err := flm.NewRouter(g, 1)
	if err != nil {
		return func() error { return err }
	}
	honest := flm.Overlay(r, flm.NewEIG(1, g.Names()))
	inputs := map[string]flm.Input{}
	for i, name := range g.Names() {
		inputs[name] = flm.BoolInput(0x36&(1<<uint(i)) != 0)
	}
	trial := flm.ByzantineTrial{
		G: g, Inputs: inputs, Honest: honest,
		Faulty: map[string]flm.Builder{"w5": flm.Equivocate(honest, flm.BoolInput(false), flm.BoolInput(true),
			func(nb string) bool { return nb < "w3" })},
		Rounds: r.Rounds(flm.EIGRounds(1)),
	}
	return func() error {
		_, _, rep, err := trial.RunWith(flm.ExecuteOpts{})
		if err != nil {
			return err
		}
		if !rep.OK() {
			return fmt.Errorf("dolev overlay bench: trial failed: %v", rep.Err())
		}
		return nil
	}
}

// cacheEvict isolates the run cache's L1 bookkeeping under eviction
// pressure: a 64KiB cache fed 4096 ~1KiB values (64x the budget) twice
// over, so nearly every Do is a miss that inserts, promotes, and evicts
// through the sharded LRU; the second pass adds the evicted-key-recompute
// path. No sim work — the measured cost is keys (sha256 hashing), shard
// locking, list surgery, and budget accounting, the machinery on the
// ExecuteCtx hot path.
func cacheEvict() error {
	c := runcache.New(runcache.WithBudget(64<<10), runcache.WithCost(func(v any) int64 {
		return int64(len(v.(string))) + 16
	}))
	val := strings.Repeat("x", 1024)
	keys := make([]string, 4096)
	for i := range keys {
		h := runcache.NewHasher("bench.cache-evict/v1")
		h.Int(i)
		keys[i] = h.Sum()
	}
	computes := 0
	for pass := 0; pass < 2; pass++ {
		for _, k := range keys {
			if _, _, err := c.Do(k, func() (any, error) {
				computes++
				return val, nil
			}); err != nil {
				return err
			}
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		return fmt.Errorf("cache-evict bench: no evictions (budget not enforced?)")
	}
	if st.BytesRetained > 64<<10 {
		return fmt.Errorf("cache-evict bench: retained %d bytes over the 64KiB budget", st.BytesRetained)
	}
	if computes < 4096 {
		return fmt.Errorf("cache-evict bench: only %d computes for 4096 distinct keys", computes)
	}
	return nil
}
