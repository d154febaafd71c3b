package runcache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoCachesValues(t *testing.T) {
	c := New()
	calls := 0
	compute := func() (any, error) { calls++; return "v", nil }
	for i := 0; i < 3; i++ {
		v, _, err := c.Do("k", compute)
		if err != nil || v != "v" {
			t.Fatalf("Do #%d = (%v, %v), want (v, nil)", i, v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 2 hits, 1 entry", st)
	}
}

func TestDoKeysAreIndependent(t *testing.T) {
	c := New()
	a, _, _ := c.Do("a", func() (any, error) { return 1, nil })
	b, _, _ := c.Do("b", func() (any, error) { return 2, nil })
	if a != 1 || b != 2 {
		t.Fatalf("Do(a)=%v Do(b)=%v, want 1 and 2", a, b)
	}
}

func TestDoErrorsAreNotCached(t *testing.T) {
	c := New()
	boom := errors.New("boom")
	calls := 0
	v, _, err := c.Do("k", func() (any, error) { calls++; return "partial", boom })
	if !errors.Is(err, boom) || v != "partial" {
		t.Fatalf("first Do = (%v, %v), want (partial, boom)", v, err)
	}
	// The failed flight must not be retained: the next call recomputes.
	v, _, err = c.Do("k", func() (any, error) { calls++; return "good", nil })
	if err != nil || v != "good" {
		t.Fatalf("second Do = (%v, %v), want (good, nil)", v, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (errors retried)", calls)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (only the successful flight retained)", st.Entries)
	}
}

func TestDoPanicsAreNotCached(t *testing.T) {
	c := New()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Do swallowed the compute panic")
			}
		}()
		c.Do("k", func() (any, error) { panic("kaboom") })
	}()
	v, _, err := c.Do("k", func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("Do after panic = (%v, %v), want (ok, nil)", v, err)
	}
}

// TestDoSingleFlight hammers one key from many goroutines and demands
// exactly one computation; run under -race this is also the publication
// safety check for the done-channel handoff.
func TestDoSingleFlight(t *testing.T) {
	c := New()
	var calls atomic.Int64
	release := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	results := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do("k", func() (any, error) {
				calls.Add(1)
				<-release // hold the flight open so everyone piles up
				return "shared", nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", n)
	}
	for i, v := range results {
		if v != "shared" {
			t.Fatalf("waiter %d got %v, want shared", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != waiters-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, waiters-1)
	}
}

func TestReset(t *testing.T) {
	c := New()
	c.Do("k", func() (any, error) { return 1, nil })
	c.Reset()
	if st := c.Stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats after Reset = %+v, want zeroes", st)
	}
	calls := 0
	c.Do("k", func() (any, error) { calls++; return 1, nil })
	if calls != 1 {
		t.Fatal("Reset did not drop the entry")
	}
}

func TestSetEnabled(t *testing.T) {
	restore := SetEnabled(false)
	if Enabled() {
		t.Fatal("Enabled() = true after SetEnabled(false)")
	}
	inner := SetEnabled(true)
	if !Enabled() {
		t.Fatal("Enabled() = false after SetEnabled(true)")
	}
	inner()
	if Enabled() {
		t.Fatal("restore did not reinstate the outer override")
	}
	restore()
}

func TestHasherFieldBoundaries(t *testing.T) {
	// "ab"+"c" and "a"+"bc" must hash differently: fields are
	// length-delimited, not concatenated.
	h1 := NewHasher("t")
	h1.Field("ab")
	h1.Field("c")
	h2 := NewHasher("t")
	h2.Field("a")
	h2.Field("bc")
	if h1.Sum() == h2.Sum() {
		t.Fatal("field boundaries are not part of the hash")
	}
	h3 := NewHasher("t")
	h3.Field("ab")
	h3.Field("c")
	if h1.Sum() != h3.Sum() {
		t.Fatal("identical field sequences hash differently")
	}
}
