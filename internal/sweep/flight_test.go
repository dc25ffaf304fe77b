package sweep

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestFlightPanicDoesNotPoison is the regression test for the poisoned-
// cell bug: a panicking fn used to consume the entry's sync.Once, so
// every future Do for that key silently returned the zero value. The
// panic must propagate, the entry must be dropped, and a later Do must
// compute fresh.
func TestFlightPanicDoesNotPoison(t *testing.T) {
	f := NewFlight[string, int]()

	panicked := func() (p any) {
		defer func() { p = recover() }()
		f.Do("k", func() int { panic("boom") })
		return nil
	}()
	if panicked != "boom" {
		t.Fatalf("builder panic = %v, want boom to propagate", panicked)
	}
	if f.Cached("k") {
		t.Fatal("panicked entry still cached; future callers would get the zero value")
	}
	if got := f.Do("k", func() int { return 42 }); got != 42 {
		t.Fatalf("Do after panic = %d, want a fresh computation (42), not the poisoned zero", got)
	}
	// And the recovery is itself cached.
	if got := f.Do("k", func() int { t.Fatal("recomputed a cached key"); return 0 }); got != 42 {
		t.Fatalf("cached Do = %d, want 42", got)
	}
}

// TestFlightPanicWakesWaiters pins the duplicate-caller contract: callers
// blocked on a builder that panics must not hang and must not observe the
// zero value — they retry and compute.
func TestFlightPanicWakesWaiters(t *testing.T) {
	f := NewFlight[int, int]()
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)

	go func() {
		defer func() { recover() }()
		f.Do(7, func() int {
			started.Done()
			<-release
			panic("builder dies")
		})
	}()

	started.Wait()
	const waiters = 8
	got := make([]int, waiters)
	var wg sync.WaitGroup
	for i := range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = f.Do(7, func() int { return 99 })
		}()
	}
	close(release)
	wg.Wait()
	for i, v := range got {
		if v != 99 {
			t.Fatalf("waiter %d got %d, want 99 (zero value means the panic poisoned the cell)", i, v)
		}
	}
}

// TestFlightPanicHammer runs panicking and succeeding builders
// concurrently under -race: whatever the interleaving, no caller may see
// the zero value, and the final cached value must win exactly once.
func TestFlightPanicHammer(t *testing.T) {
	for round := 0; round < 20; round++ {
		f := NewFlight[int, int]()
		var boom atomic.Bool
		boom.Store(true)
		var wg sync.WaitGroup
		var zeros atomic.Int64
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { recover() }()
				v := f.Do(1, func() int {
					// First builder(s) panic; once boom is spent, builders
					// succeed.
					if boom.CompareAndSwap(true, false) {
						panic("hammer")
					}
					return 5
				})
				if v == 0 {
					zeros.Add(1)
				}
			}()
		}
		wg.Wait()
		if zeros.Load() != 0 {
			t.Fatalf("round %d: %d caller(s) observed the zero value", round, zeros.Load())
		}
		// The key must end either computed (5) or dropped; if cached, a
		// final Do returns 5 without recomputing.
		if got := f.Do(1, func() int { return 5 }); got != 5 {
			t.Fatalf("round %d: final value %d, want 5", round, got)
		}
	}
}

// TestFlightPanicDistinctKeysUnaffected: a panic on one key must not
// disturb a concurrent computation on another.
func TestFlightPanicDistinctKeysUnaffected(t *testing.T) {
	f := NewFlight[int, int]()
	func() {
		defer func() { recover() }()
		f.Do(1, func() int { panic("x") })
	}()
	if got := f.Do(2, func() int { return 2 }); got != 2 {
		t.Fatalf("key 2 = %d, want 2", got)
	}
	if !f.Cached(2) || f.Cached(1) {
		t.Fatalf("cached(2)=%v cached(1)=%v, want true/false", f.Cached(2), f.Cached(1))
	}
}

// TestFlightDoManyCoalesces hammers one group with DoMany calls over
// overlapping, rotated key sets and Do calls on single keys: whatever the
// interleaving, each key is computed exactly once and every caller sees
// the same value.
func TestFlightDoManyCoalesces(t *testing.T) {
	f := NewFlight[int, int]()
	const nkeys = 12
	var computes [nkeys]atomic.Int64
	value := func(k int) int {
		computes[k].Add(1)
		return 100 + k
	}
	check := func(g, k, v int) {
		if v != 100+k {
			t.Errorf("caller %d saw %d for key %d, want %d", g, v, k, 100+k)
		}
	}
	var wg sync.WaitGroup
	for g := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%4 == 3 {
				// Single-key callers walk every key through Do.
				for i := range nkeys {
					k := (i + g) % nkeys
					check(g, k, f.Do(k, func() int { return value(k) }))
				}
				return
			}
			// Batch callers claim a rotated window of half the keys.
			keys := make([]int, nkeys/2)
			for i := range keys {
				keys[i] = (i + g) % nkeys
			}
			vals := f.DoMany(keys, func(missing []int) []int {
				out := make([]int, len(missing))
				for j, i := range missing {
					out[j] = value(keys[i])
				}
				return out
			})
			for i, k := range keys {
				check(g, k, vals[i])
			}
		}()
	}
	wg.Wait()
	for k := range nkeys {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want 1", k, n)
		}
	}
}

// TestFlightDoManyPanicDropsClaims: a batch builder that panics drops
// every key it claimed, and a caller waiting on one of them retries and
// computes it itself.
func TestFlightDoManyPanicDropsClaims(t *testing.T) {
	f := NewFlight[string, int]()
	p := func() (p any) {
		defer func() { p = recover() }()
		f.DoMany([]string{"a", "b"}, func([]int) []int { panic("batch dies") })
		return nil
	}()
	if p != "batch dies" {
		t.Fatalf("builder panic = %v, want it to propagate", p)
	}
	if f.Cached("a") || f.Cached("b") {
		t.Fatalf("after the panic cached(a)=%v cached(b)=%v, want both dropped", f.Cached("a"), f.Cached("b"))
	}

	claimed := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		f.DoMany([]string{"a", "b"}, func([]int) []int {
			close(claimed)
			<-release
			panic("batch dies")
		})
	}()
	<-claimed
	waited := make(chan int, 1)
	go func() { waited <- f.Do("b", func() int { return 7 }) }()
	close(release)
	if p := <-panicked; p != "batch dies" {
		t.Fatalf("builder panic = %v, want it to propagate", p)
	}
	if got := <-waited; got != 7 {
		t.Fatalf("waiter on b got %d, want its own computation (7)", got)
	}
	if f.Cached("a") {
		t.Error("a still cached after the batch that claimed it panicked")
	}
}
