package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrdering: results land in index order no matter how the cells
// are scheduled, and they match a serial run byte for byte.
func TestMapOrdering(t *testing.T) {
	const n = 64
	fn := func(i int) (string, error) {
		if i%2 == 1 {
			time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
		}
		return fmt.Sprintf("cell-%03d", i), nil
	}
	serial, serr := Map(1, n, fn)
	for _, workers := range []int{2, 4, 8, n} {
		parallel, perr := Map(workers, n, fn)
		for i := range serial {
			if parallel[i] != serial[i] {
				t.Fatalf("workers=%d: slot %d = %q, serial %q", workers, i, parallel[i], serial[i])
			}
			if (perr[i] == nil) != (serr[i] == nil) {
				t.Fatalf("workers=%d: slot %d error mismatch", workers, i)
			}
		}
	}
}

// TestMapPanicCapture: a panicking cell is isolated into its own slot.
func TestMapPanicCapture(t *testing.T) {
	_, errs := Map(4, 8, func(i int) (int, error) {
		if i == 5 {
			panic("boom")
		}
		return i * i, nil
	})
	for i, err := range errs {
		if i == 5 {
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("cell 5: got %v, want *PanicError", err)
			}
			if pe.Index != 5 || pe.Value != "boom" || len(pe.Stack) == 0 {
				t.Fatalf("bad PanicError: %+v", pe)
			}
		} else if err != nil {
			t.Fatalf("cell %d: unexpected error %v", i, err)
		}
	}
}

// TestMapErrLowestIndex: MapErr reports the lowest-indexed error, not the
// first to occur in wall time.
func TestMapErrLowestIndex(t *testing.T) {
	_, err := MapErr(4, 10, func(i int) (int, error) {
		switch i {
		case 2:
			time.Sleep(2 * time.Millisecond) // lower index finishes later
			return 0, errors.New("low")
		case 7:
			return 0, errors.New("high")
		}
		return i, nil
	})
	if err == nil || err.Error() != "low" {
		t.Fatalf("got %v, want the index-2 error", err)
	}
}

// TestMapBoundedWidth: no more than the requested workers run at once.
func TestMapBoundedWidth(t *testing.T) {
	const workers, n = 3, 24
	var active, peak atomic.Int32
	_, err := MapErr(workers, n, func(i int) (int, error) {
		a := active.Add(1)
		for {
			p := peak.Load()
			if a <= p || peak.CompareAndSwap(p, a) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		active.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

// TestMapSerialNoGoroutines: workers=1 runs on the calling goroutine.
func TestMapSerialNoGoroutines(t *testing.T) {
	main := goid()
	_, err := MapErr(1, 4, func(i int) (int, error) {
		if goid() != main {
			return 0, errors.New("cell ran off the calling goroutine")
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// goid extracts the current goroutine id from the runtime stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(buf[:20])
}

// TestWorkersDefault: non-positive widths select GOMAXPROCS.
func TestWorkersDefault(t *testing.T) {
	if got, want := Workers(0), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers(0) = %d, want %d", got, want)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
}

// TestCacheBuildOnce: concurrent Gets for one key run build exactly once
// and all see the same value.
func TestCacheBuildOnce(t *testing.T) {
	c := NewCache[string, int]()
	var builds atomic.Int32
	var wg sync.WaitGroup
	results := make([]int, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Get("k", func() (int, error) {
				builds.Add(1)
				time.Sleep(time.Millisecond)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("build ran %d times, want 1", b)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("goroutine %d saw %d", i, v)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestCacheErrorsCached: a failed build is memoized; the builder is not
// retried.
func TestCacheErrorsCached(t *testing.T) {
	c := NewCache[int, int]()
	var builds int
	build := func() (int, error) {
		builds++
		return 0, errors.New("nope")
	}
	if _, err := c.Get(1, build); err == nil {
		t.Fatal("want error")
	}
	if _, err := c.Get(1, build); err == nil {
		t.Fatal("want cached error")
	}
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
	c.Reset()
	if _, err := c.Get(1, build); err == nil || builds != 2 {
		t.Fatalf("after Reset: builds=%d err=%v", builds, err)
	}
}

// TestCacheDistinctKeysConcurrent: different keys build independently.
func TestCacheDistinctKeysConcurrent(t *testing.T) {
	c := NewCache[int, int]()
	_, errs := Map(8, 32, func(i int) (int, error) {
		return c.Get(i%4, func() (int, error) { return i % 4 * 10, nil })
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
}

// TestCachePanicResolves: a build that panics still resolves its entry. The
// builder's caller sees the panic (par.Map captures it), and a Get racing the
// build and a Get after it both return the cached *PanicError instead of
// waiting forever.
func TestCachePanicResolves(t *testing.T) {
	c := NewCache[string, int]()
	started, release := make(chan struct{}), make(chan struct{})
	build := func() (int, error) {
		close(started)
		<-release
		panic("boom")
	}
	var wg sync.WaitGroup
	var racing error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs := Map(1, 1, func(int) (int, error) { return c.Get("k", build) })
		var pe *PanicError
		if !errors.As(errs[0], &pe) || pe.Index != 0 || pe.Value != "boom" {
			t.Errorf("builder's Map: got %v, want the cell's *PanicError", errs[0])
		}
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, racing = c.Get("k", func() (int, error) { t.Error("second build ran"); return 0, nil })
	}()
	close(release)
	wg.Wait()
	_, later := c.Get("k", func() (int, error) { t.Error("second build ran"); return 0, nil })
	for name, err := range map[string]error{"racing Get": racing, "later Get": later} {
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "boom" {
			t.Errorf("%s: got %v, want the build's *PanicError", name, err)
		}
	}
}
