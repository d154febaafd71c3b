package sweep

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	defer SetWorkers(SetWorkers(8))
	got, err := Map(100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	// Whatever the interleaving, the reported error must be the one a
	// sequential loop would hit first.
	defer SetWorkers(SetWorkers(4))
	for trial := 0; trial < 20; trial++ {
		_, err := Map(50, func(i int) (int, error) {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return 0, fmt.Errorf("trial %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "trial 3 failed" {
			t.Fatalf("got error %v, want trial 3's", err)
		}
	}
}

func TestMapCancelsAfterFirstError(t *testing.T) {
	defer SetWorkers(SetWorkers(2))
	var ran atomic.Int64
	sentinel := errors.New("boom")
	_, err := Map(10_000, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
	if n := ran.Load(); n == 10_000 {
		t.Fatalf("sweep did not cancel: all %d trials ran", n)
	}
}

// TestMapSequentialFallback: a one-worker pool runs every trial, in
// index order.
func TestMapSequentialFallback(t *testing.T) {
	defer SetWorkers(SetWorkers(1))
	var order []int
	got, err := Map(5, func(i int) (string, error) {
		order = append(order, i)
		return fmt.Sprint(i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[4] != "4" || fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("sequential path broken: results %v, order %v", got, order)
	}
}

func TestMapZeroTrials(t *testing.T) {
	got, err := Map(0, func(i int) (int, error) { t.Fatal("must not run"); return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestWorkersResolutionOrder(t *testing.T) {
	old := os.Getenv(WorkersEnv)
	defer os.Setenv(WorkersEnv, old)

	SetWorkers(0)
	os.Setenv(WorkersEnv, "")
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	os.Setenv(WorkersEnv, "3")
	if got := Workers(); got != 3 {
		t.Fatalf("env Workers() = %d, want 3", got)
	}
	os.Setenv(WorkersEnv, "bogus")
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("bogus env Workers() = %d, want %d", got, want)
	}
	prev := SetWorkers(5)
	if prev != 0 {
		t.Fatalf("previous override = %d, want 0", prev)
	}
	if got := Workers(); got != 5 {
		t.Fatalf("override Workers() = %d, want 5", got)
	}
	SetWorkers(0)
}
