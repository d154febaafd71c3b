package runcache

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestDoObservedHitMissFlags checks the How that Do reports for one
// key: the first call runs the compute, the second is a Hit that does
// not, and neither waited.
func TestDoObservedHitMissFlags(t *testing.T) {
	c := New()
	v, how, err := c.Do("k", func() (any, error) { return 42, nil })
	if err != nil || v != 42 || how != Computed {
		t.Fatalf("first call: v=%v how=%v err=%v, want 42/%v/nil", v, how, err, Computed)
	}
	v, how, err = c.Do("k", func() (any, error) {
		t.Fatal("compute ran on a hit")
		return nil, nil
	})
	if err != nil || v != 42 || how != Hit {
		t.Fatalf("second call: v=%v how=%v err=%v, want 42/%v/nil", v, how, err, Hit)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Waits != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 0 waits", st)
	}
}

// TestDoObservedErrorNotCached checks that the call after a failed
// compute reports Computed: the error was not retained as a hit.
func TestDoObservedErrorNotCached(t *testing.T) {
	c := New()
	boom := errors.New("boom")
	if _, _, err := c.Do("k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, how, err := c.Do("k", func() (any, error) { return "fresh", nil })
	if err != nil || how != Computed || v != "fresh" {
		t.Fatalf("after error: v=%v how=%v err=%v, want fresh recompute", v, how, err)
	}
}

// TestDoReportsWaiters drives the single-flight path: concurrent callers
// of one key must all get the value, and the late ones must report
// Waited (they blocked on the in-flight compute). The compute holds
// until every goroutine has launched.
func TestDoReportsWaiters(t *testing.T) {
	c := New()
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _, _ = c.Do("k", func() (any, error) {
			close(started)
			<-release
			return "v", nil
		})
	}()
	<-started

	const waiters = 4
	var wg sync.WaitGroup
	hows := make(chan How, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, how, err := c.Do("k", func() (any, error) {
				t.Error("compute ran twice for one key")
				return nil, nil
			})
			if err != nil || v != "v" {
				t.Errorf("waiter got v=%v err=%v", v, err)
			}
			hows <- how
		}()
	}
	// Do increments Waits before blocking on the in-flight
	// compute, so once the counter reaches the waiter count every waiter
	// is committed to the waited path; only then release the compute.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Waits < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: Waits = %d, want %d", c.Stats().Waits, waiters)
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	close(hows)
	for how := range hows {
		if how != Waited {
			t.Errorf("a waiter reported %v despite blocking on the held compute", how)
		}
	}
	if got := c.Stats().Waits; got != waiters {
		t.Fatalf("Stats().Waits = %d, want %d", got, waiters)
	}
}

func TestStatsSinceAndHitRate(t *testing.T) {
	prev := Stats{Hits: 10, Misses: 4, Waits: 1, Entries: 4}
	cur := Stats{Hits: 25, Misses: 9, Waits: 3, Entries: 9}
	d := cur.Since(prev)
	if d.Hits != 15 || d.Misses != 5 || d.Waits != 2 {
		t.Fatalf("Since = %+v, want 15 hits / 5 misses / 2 waits", d)
	}
	if d.Entries != 9 {
		t.Fatalf("Since.Entries = %d, want current entry count 9 (entries are a level, not a flow)", d.Entries)
	}
	if got := d.HitRate(); got != 0.75 {
		t.Fatalf("HitRate = %v, want 0.75", got)
	}
	if got := (Stats{}).HitRate(); got != 0 {
		t.Fatalf("empty HitRate = %v, want 0", got)
	}
}

// TestSinceSurvivesReset is the per-command isolation contract: a
// snapshot taken before a Reset never makes later deltas go negative —
// callers snapshot after Reset, and Since of two post-Reset snapshots
// is exact.
func TestSinceSurvivesReset(t *testing.T) {
	c := New()
	for i := 0; i < 3; i++ {
		_, _, _ = c.Do("a", func() (any, error) { return 1, nil })
	}
	c.Reset()
	base := c.Stats()
	if base.Hits != 0 || base.Misses != 0 || base.Waits != 0 {
		t.Fatalf("post-reset stats = %+v, want zeroes", base)
	}
	_, _, _ = c.Do("b", func() (any, error) { return 2, nil })
	_, _, _ = c.Do("b", func() (any, error) { return 2, nil })
	d := c.Stats().Since(base)
	if d.Hits != 1 || d.Misses != 1 {
		t.Fatalf("delta = %+v, want 1 hit / 1 miss", d)
	}
}
