package runcache

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// strCost is the exact cost model used by the bound tests: value length,
// no overhead, so budget arithmetic in assertions is trivial.
func strCost(v any) int64 { return int64(len(v.(string))) }

// spreadKey builds a sha256 key for index i, so keys spread uniformly
// over shards the way real fingerprints do.
func spreadKey(i int) string {
	h := NewHasher("twotier-test/v1")
	h.Int(i)
	return h.Sum()
}

// shardKey builds a key for the first shard whatever its suffix: every
// key it returns starts with the same byte, so tests of one shard's LRU
// and budget arithmetic do not depend on how keys spread.
func shardKey(suffix string) string { return "\x00" + suffix }

// TestL1BudgetNeverExceeded is the provable-bound acceptance test:
// insertions far past the budget must never push retained bytes over
// the configured bound, at any point, not just at the end.
func TestL1BudgetNeverExceeded(t *testing.T) {
	const budget = 4096
	c := New(WithBudget(budget), WithCost(strCost))
	val := strings.Repeat("v", 100)
	for i := 0; i < 500; i++ {
		if _, _, err := c.Do(spreadKey(i), func() (any, error) { return val, nil }); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.BytesRetained > budget {
			t.Fatalf("after insert %d: retained %d bytes > budget %d", i, st.BytesRetained, budget)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("500 x 100B inserts into a 4KiB cache evicted nothing: %+v", st)
	}
	if st.Entries == 0 {
		t.Fatalf("eviction left the cache empty: %+v", st)
	}
}

// TestEvictedKeyRecomputes pins the LRU order: with room for two
// entries in the shard, touching the older one makes the untouched one
// the victim.
func TestEvictedKeyRecomputes(t *testing.T) {
	c := New(WithBudget(2*numShards), WithCost(strCost))
	calls := map[string]int{}
	do := func(key string) {
		t.Helper()
		v, _, err := c.Do(shardKey(key), func() (any, error) { calls[key]++; return "x", nil })
		if err != nil || v != "x" {
			t.Fatalf("Do(%s) = (%v, %v)", key, v, err)
		}
	}
	do("a")
	do("b")
	do("a") // refresh a: b is now least recently used
	do("c") // evicts b
	do("a")
	do("b")
	if calls["a"] != 1 {
		t.Fatalf("a computed %d times, want 1 (should have survived as MRU)", calls["a"])
	}
	if calls["b"] != 2 {
		t.Fatalf("b computed %d times, want 2 (evicted, then recomputed)", calls["b"])
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
}

// TestBudgetZeroRetainsNothing: budget 0 is the "cache off but still
// single-flight" mode — results identical to FLM_RUNCACHE=off (every
// lookup computes, nothing retained) while concurrent callers of one key
// still coalesce onto one computation.
func TestBudgetZeroRetainsNothing(t *testing.T) {
	c := New(WithBudget(0))
	calls := 0
	for i := 0; i < 3; i++ {
		v, _, err := c.Do("k", func() (any, error) { calls++; return fmt.Sprintf("v%d", calls), nil })
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("v%d", i+1); v != want {
			t.Fatalf("call %d served %v, want fresh %s", i, v, want)
		}
		if st := c.Stats(); st.Entries != 0 || st.BytesRetained != 0 {
			t.Fatalf("budget-zero cache retained state: %+v", st)
		}
	}
	if calls != 3 {
		t.Fatalf("compute ran %d times, want 3 (nothing retained)", calls)
	}

	// Single-flight must still hold.
	var inFlight atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do("sf", func() (any, error) {
				inFlight.Add(1)
				<-release
				return "shared", nil
			})
			if err != nil || v != "shared" {
				t.Errorf("Do = (%v, %v)", v, err)
			}
		}()
	}
	for c.Stats().Waits < 7 {
		// Spin until every waiter has piled onto the flight; bounded by
		// the test timeout.
	}
	close(release)
	wg.Wait()
	if n := inFlight.Load(); n != 1 {
		t.Fatalf("budget-zero cache ran %d concurrent computes, want 1 (single flight)", n)
	}
}

// TestWaitersSurviveReset: a flight whose entry is removed (Reset, or
// equivalently eviction) while waiters are blocked on it must still
// deliver its value to every waiter, and the next lookup recomputes.
func TestWaitersSurviveReset(t *testing.T) {
	c := New()
	computing := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, err := c.Do("k", func() (any, error) {
			close(computing)
			<-release
			return "first", nil
		})
		if err != nil || v != "first" {
			t.Errorf("owner Do = (%v, %v)", v, err)
		}
	}()
	<-computing

	const waiters = 4
	results := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, _ = c.Do("k", func() (any, error) { return "wrong-flight", nil })
		}(i)
	}
	for c.Stats().Waits < waiters {
		// Spin until all waiters hold the entry.
	}

	c.Reset() // rips the in-flight entry out of the map
	close(release)
	wg.Wait()
	for i, v := range results {
		if v != "first" {
			t.Fatalf("waiter %d got %v after Reset, want the original flight's value", i, v)
		}
	}

	calls := 0
	if v, _, _ := c.Do("k", func() (any, error) { calls++; return "second", nil }); v != "second" || calls != 1 {
		t.Fatalf("post-Reset Do = %v (calls %d), want fresh second/1", v, calls)
	}
}

// TestOversizeValueNotRetained: a value larger than a whole shard's
// budget slice is returned but never resident — and must not evict the
// entries of that shard that do fit.
func TestOversizeValueNotRetained(t *testing.T) {
	c := New(WithBudget(100*numShards), WithCost(strCost))
	c.Do(shardKey("small"), func() (any, error) { return "s", nil })
	v, _, err := c.Do(shardKey("huge"), func() (any, error) { return strings.Repeat("h", 1000), nil })
	if err != nil || len(v.(string)) != 1000 {
		t.Fatalf("oversize Do = (%d bytes, %v)", len(v.(string)), err)
	}
	st := c.Stats()
	if st.Entries != 1 || st.BytesRetained != 1 {
		t.Fatalf("stats after oversize insert = %+v, want only the small entry resident", st)
	}
	calls := 0
	c.Do(shardKey("small"), func() (any, error) { calls++; return "s", nil })
	if calls != 0 {
		t.Fatal("oversize insert evicted the resident small entry")
	}
}

// TestConcurrentEvictionSingleFlight is the -race stress test of the
// eviction/single-flight interaction: many goroutines over a key space
// far larger than a tiny budget, every lookup validating that it got its
// own key's value — never another flight's — while eviction churns
// constantly.
func TestConcurrentEvictionSingleFlight(t *testing.T) {
	const budget = 64 * numShards // room for two values per shard
	c := New(WithBudget(budget), WithCost(strCost))
	const (
		goroutines = 8
		iterations = 400
		keySpace   = 32
	)
	keys := make([]string, keySpace)
	vals := make(map[string]string, keySpace)
	for i := range keys {
		keys[i] = spreadKey(i)
		vals[keys[i]] = fmt.Sprintf("val-%d-%s", i, strings.Repeat("x", 16))
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				k := keys[(g*31+i)%keySpace]
				v, _, err := c.Do(k, func() (any, error) { return vals[k], nil })
				if err != nil {
					t.Errorf("Do(%d): %v", i, err)
					return
				}
				if v != vals[k] {
					t.Errorf("Do returned another key's value: got %v want %v", v, vals[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.BytesRetained > budget {
		t.Fatalf("retained %d bytes > %d budget after concurrent churn", st.BytesRetained, budget)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions under %d-goroutine churn of %d keys against a %dB budget", goroutines, keySpace, budget)
	}
}

// parseBudgetCases are TestParseBudget's table and FuzzParseBudget's
// seeds.
var parseBudgetCases = []struct {
	in    string
	bytes int64
	ok    bool
}{
	{"", DefaultBudget, true},
	{"unbounded", -1, true},
	{"UNLIMITED", -1, true},
	{"-3", -1, true},
	{"0", 0, true},
	{"123", 123, true},
	{"64k", 64 << 10, true},
	{"64K", 64 << 10, true},
	{"64KiB", 64 << 10, true},
	{"10mb", 10 << 20, true},
	{"2G", 2 << 30, true},
	{" 5 MiB ", 5 << 20, true},
	{"nonsense", 0, false},
	{"12q", 0, false},
	{"8589934591G", 8589934591 << 30, true}, // the largest count of G that fits
	{"8589934592G", 0, false},               // 2^63 wraps to MinInt64
	{"17179869184G", 0, false},              // 2^64 wraps to 0
	{"99999999999999999999", 0, false},
}

func TestParseBudget(t *testing.T) {
	for _, tc := range parseBudgetCases {
		got, ok := ParseBudget(tc.in)
		if got != tc.bytes || ok != tc.ok {
			t.Errorf("ParseBudget(%q) = (%d, %v), want (%d, %v)", tc.in, got, ok, tc.bytes, tc.ok)
		}
	}
}

// FuzzParseBudget: ParseBudget never panics and accepts only -1 (no
// bound) or a byte count in [0, MaxInt64]; and a count n >= 0 written
// with each unit suffix reads as n times the unit when that fits, and is
// rejected when it does not. The seeds run in plain go test.
func FuzzParseBudget(f *testing.F) {
	for i, tc := range parseBudgetCases {
		f.Add(tc.in, []int64{0, 123, 8589934591, 8589934592, math.MaxInt64}[i%5])
	}
	units := []struct {
		suffix string
		mult   int64
	}{
		{"", 1}, {"k", 1 << 10}, {"KB", 1 << 10}, {"KiB", 1 << 10},
		{"m", 1 << 20}, {"MB", 1 << 20}, {"mib", 1 << 20},
		{"G", 1 << 30}, {"gb", 1 << 30}, {"GiB", 1 << 30},
	}
	f.Fuzz(func(t *testing.T, s string, n int64) {
		if got, ok := ParseBudget(s); ok && got < -1 {
			t.Fatalf("ParseBudget(%q) = %d, accepted", s, got)
		}
		if n < 0 {
			return
		}
		for _, u := range units {
			in := fmt.Sprint(n) + u.suffix
			got, ok := ParseBudget(in)
			if fits := n <= math.MaxInt64/u.mult; ok != fits || (fits && got != n*u.mult) {
				t.Fatalf("ParseBudget(%q) = (%d, %v), want %d times %d (fits: %v)", in, got, ok, n, u.mult, fits)
			}
		}
	})
}
