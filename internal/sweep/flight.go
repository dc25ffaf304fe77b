package sweep

import "sync"

// Flight is a singleflight-style memo table: concurrent Do and DoMany
// calls for the same key coalesce onto one computation, and every
// completed computation is cached forever. It replaces the
// check-compute-store pattern, which recomputes a cell when two
// goroutines race past the cache miss.
//
// A computation that panics is not cached: the entry is dropped, the
// panic propagates to the caller that ran fn, and blocked duplicate
// callers retry with their own computation. (The previous sync.Once
// implementation consumed the once on panic and served the zero value to
// every future caller — a poisoned cell, fatal now that Flight results
// can be persisted to disk.)
//
// The zero value is not usable; call NewFlight.
type Flight[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*flightEntry[V]
}

type flightEntry[V any] struct {
	// done is closed when the builder finishes, successfully or not; ok
	// is written before the close and read only after it (the channel
	// close orders the accesses).
	done chan struct{}
	val  V
	ok   bool
}

// NewFlight returns an empty group.
func NewFlight[K comparable, V any]() *Flight[K, V] {
	return &Flight[K, V]{entries: map[K]*flightEntry[V]{}}
}

// Do returns the memoized value for key, computing it with fn exactly once
// across all concurrent and future callers. Duplicate callers block until
// the first computation finishes and then share its result. If fn panics,
// the panic propagates out of the builder's Do, the entry is dropped so
// the zero value is never served, and blocked duplicates retry. A
// completed key is served without allocating; a miss is DoMany of one key.
func (f *Flight[K, V]) Do(key K, fn func() V) V {
	f.mu.Lock()
	e, found := f.entries[key]
	f.mu.Unlock()
	if found {
		select {
		case <-e.done:
			if e.ok {
				return e.val
			}
		default:
		}
	}
	return f.DoMany([]K{key}, func([]int) []V { return []V{fn()} })[0]
}

// DoMany returns the memoized values of keys, in order. It claims every
// key that no caller holds, computes all of them with one fn call —
// missing lists their indices into keys, and fn returns their values in
// that order — and publishes each. Only then does it wait for the keys
// other callers hold, so two overlapping DoMany calls cannot deadlock.
// keys must be distinct. If fn panics, the keys it was computing are
// dropped, callers waiting on them retry with their own computation, and
// the panic propagates. Likewise, when another holder panics, this call
// claims the dropped keys afresh and calls fn again for them.
func (f *Flight[K, V]) DoMany(keys []K, fn func(missing []int) []V) []V {
	out := make([]V, len(keys))
	pending := make([]int, len(keys))
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		var missing, held []int
		var claimed, waits []*flightEntry[V]
		f.mu.Lock()
		for _, i := range pending {
			if e, ok := f.entries[keys[i]]; ok {
				held, waits = append(held, i), append(waits, e)
				continue
			}
			e := &flightEntry[V]{done: make(chan struct{})}
			f.entries[keys[i]] = e
			missing, claimed = append(missing, i), append(claimed, e)
		}
		f.mu.Unlock()

		if len(missing) > 0 {
			f.build(keys, missing, claimed, fn, out)
		}
		pending = pending[:0]
		for j, e := range waits {
			<-e.done
			if e.ok {
				out[held[j]] = e.val
			} else {
				// The holder panicked and its entry is gone: claim the
				// key afresh on the next pass.
				pending = append(pending, held[j])
			}
		}
	}
	return out
}

// build runs fn for the claimed entries and publishes them. The deferred
// cleanup runs on both success and panic: an entry fn did not complete is
// dropped (waking its waiters into a retry) before the panic continues
// unwinding.
func (f *Flight[K, V]) build(keys []K, missing []int, claimed []*flightEntry[V], fn func([]int) []V, out []V) {
	defer func() {
		f.mu.Lock()
		for j, e := range claimed {
			if k := keys[missing[j]]; !e.ok && f.entries[k] == e {
				delete(f.entries, k)
			}
		}
		f.mu.Unlock()
		for _, e := range claimed {
			close(e.done)
		}
	}()
	vals := fn(missing)
	for j, e := range claimed {
		out[missing[j]] = vals[j]
		e.val, e.ok = vals[j], true
	}
}

// Cached reports whether key has an entry (computed or in flight).
func (f *Flight[K, V]) Cached(key K) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.entries[key]
	return ok
}

// Len returns the number of cached or in-flight keys.
func (f *Flight[K, V]) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.entries)
}
