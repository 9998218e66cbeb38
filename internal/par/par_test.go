package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		n := 237
		var hits atomic.Int64
		seen := make([]atomic.Bool, n)
		ForEach(workers, n, func(i int) {
			hits.Add(1)
			if seen[i].Swap(true) {
				t.Errorf("workers=%d: index %d run twice", workers, i)
			}
		})
		if int(hits.Load()) != n {
			t.Fatalf("workers=%d: ran %d of %d items", workers, hits.Load(), n)
		}
	}
}

func TestForEachErrLowestIndexWins(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		err := ForEachErr(workers, 50, func(i int) error {
			if i%10 == 3 {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail at 3" {
			t.Fatalf("workers=%d: got %v, want fail at 3", workers, err)
		}
	}
}

func TestForEachErrNilOnSuccess(t *testing.T) {
	if err := ForEachErr(4, 20, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEachErr(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal("n=0 should never call fn")
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic was swallowed")
		}
	}()
	ForEach(4, 10, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
}

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(8, 3); got != 3 {
		t.Fatalf("Workers(8,3) = %d", got)
	}
	if got := Workers(2, 100); got != 2 {
		t.Fatalf("Workers(2,100) = %d", got)
	}
	if got := Workers(0, 100); got < 1 {
		t.Fatalf("Workers(0,100) = %d", got)
	}
	if got := Workers(-3, 0); got != 1 {
		t.Fatalf("Workers(-3,0) = %d", got)
	}
}

func TestForEachWorkerErrWorkerIndexBounds(t *testing.T) {
	const workers, n = 4, 100
	var hits [workers]atomic.Int64
	err := ForEachWorkerErr(workers, n, func(w, i int) error {
		if w < 0 || w >= workers {
			t.Errorf("worker index %d out of [0,%d)", w, workers)
		}
		hits[w].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for i := range hits {
		total += hits[i].Load()
	}
	if total != n {
		t.Fatalf("ran %d items, want %d", total, n)
	}
}

// TestForEachWorkerErrNoOverlap asserts the per-worker serialization
// contract: calls that share a worker index never run concurrently, so a
// worker-indexed scratch resource needs no locking.
func TestForEachWorkerErrNoOverlap(t *testing.T) {
	const workers, n = 4, 200
	var busy [workers]atomic.Bool
	err := ForEachWorkerErr(workers, n, func(w, i int) error {
		if !busy[w].CompareAndSwap(false, true) {
			return fmt.Errorf("worker %d re-entered concurrently", w)
		}
		defer busy[w].Store(false)
		runtime.Gosched()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForEachWorkerErrSequentialFallback(t *testing.T) {
	var order []int
	err := ForEachWorkerErr(1, 5, func(w, i int) error {
		if w != 0 {
			t.Fatalf("sequential path got worker %d", w)
		}
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order %v", order)
		}
	}
}

func TestForEachWorkerErrLowestError(t *testing.T) {
	want := errors.New("lowest")
	err := ForEachWorkerErr(4, 50, func(w, i int) error {
		switch i {
		case 3:
			return want
		case 7, 20:
			return errors.New("higher")
		}
		return nil
	})
	if !errors.Is(err, want) && err != nil && err.Error() != "lowest" {
		t.Fatalf("got %v, want lowest-index error", err)
	}
	if err == nil {
		t.Fatal("expected an error")
	}
}
