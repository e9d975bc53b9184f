// Package par is the deterministic fan-out engine for the evaluation
// harness: it runs independent simulation cells across a bounded worker
// pool while guaranteeing that the observable results are byte-identical
// to a serial run.
//
// The determinism contract mirrors the paper's own correctness story —
// just as speculative execution must never perturb the original thread
// (Chang & Gibson §3), parallelizing the harness must never perturb a
// single simulated cycle. The engine provides exactly the properties
// that make this provable:
//
//   - stable result ordering: cell i's result lands in slot i of the
//     returned slice no matter which worker ran it or when it finished;
//   - cell isolation: the engine shares nothing between cells — each fn(i)
//     must build its own mutable simulation state (the rest of the repo's
//     stack is goroutine-confined per core.System by construction); what
//     cells do share, through Cache, is immutable;
//   - panic capture: a panicking cell is recovered in its worker and
//     surfaced as a *PanicError in that cell's slot, so one bad cell
//     cannot tear down the run or skew sibling cells;
//   - bounded width: at most Workers(w) goroutines run at once
//     (defaulting to GOMAXPROCS), so a 100-cell sweep on a 4-core host
//     holds 4 simulations in memory, not 100.
//
// Cache is the companion piece: a concurrent, build-once memo for the
// immutable artifacts (built workloads: file systems plus assembled and
// transformed programs) that every cell of a sweep would otherwise rebuild.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Workers normalizes a requested pool width: values <= 0 select
// GOMAXPROCS (the default the tipbench -parallel flag exposes as
// "NumCPU"); anything else is returned unchanged. Width 1 reproduces
// strictly serial execution, cell 0 first.
func Workers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// PanicError is a panic captured from a worker cell.
type PanicError struct {
	Index int    // the cell that panicked
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: cell %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Map runs fn(0) .. fn(n-1) on at most Workers(workers) goroutines and
// returns the n results in index order: values[i] and errs[i] are what
// fn(i) returned. A panic in fn(i) becomes a *PanicError in errs[i].
// With workers == 1 the cells run serially on the calling goroutine in
// index order, with no goroutines spawned — today's behavior, exactly.
func Map[T any](workers, n int, fn func(i int) (T, error)) (values []T, errs []error) {
	values = make([]T, n)
	errs = make([]error, n)
	if n == 0 {
		return values, errs
	}
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		values[i], errs[i] = fn(i)
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			call(i)
		}
		return values, errs
	}
	// Workers pull cell indices from a channel; each cell writes only its
	// own slot, so the result assembly is free of ordering races.
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				call(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return values, errs
}

// MapErr is Map for callers that stop at the first failure: it returns
// the values plus the lowest-indexed error (not the first to *occur* —
// error identity must not depend on scheduling).
func MapErr[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	values, errs := Map(workers, n, fn)
	for _, err := range errs {
		if err != nil {
			return values, err
		}
	}
	return values, nil
}

// Cache is a concurrent build-once memo: the first Get for a key runs
// build and every Get (concurrent or later) for that key returns the same
// value. Values must be immutable — they are handed to many goroutines.
//
// Duplicate suppression is per key: two cells racing on the same key run
// build once and share the result; cells on different keys build
// concurrently. A build error is cached like a value (deterministic
// inputs fail deterministically; retrying cannot help).
type Cache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*cacheEntry[V]
}

type cacheEntry[V any] struct {
	ready chan struct{}
	val   V
	err   error
}

// NewCache returns an empty cache.
func NewCache[K comparable, V any]() *Cache[K, V] {
	return &Cache[K, V]{m: make(map[K]*cacheEntry[V])}
}

// Get returns the cached value for key, running build to produce it if
// this is the first request. Concurrent Gets for the same key block until
// the one running build finishes.
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &cacheEntry[V]{ready: make(chan struct{})}
		c.m[key] = e
		c.mu.Unlock()
		e.val, e.err = build()
		close(e.ready)
		return e.val, e.err
	}
	c.mu.Unlock()
	<-e.ready
	return e.val, e.err
}

// Len returns the number of cached keys.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Reset drops every cached entry. Entries mid-build are unaffected (their
// waiters still complete); subsequent Gets rebuild.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[K]*cacheEntry[V])
}
