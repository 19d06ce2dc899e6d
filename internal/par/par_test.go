package par

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCatcherRethrowsFirstPanicWithWorkerStack(t *testing.T) {
	var c Catcher
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer c.Catch()
			if i == 2 {
				panic("kernel blowup")
			}
		}(i)
	}
	wg.Wait()

	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("Rethrow did not panic")
		}
		p, ok := v.(*Panic)
		if !ok {
			t.Fatalf("rethrown value is %T, want *Panic", v)
		}
		if p.Value != "kernel blowup" {
			t.Fatalf("panic value = %v", p.Value)
		}
		if !strings.Contains(p.Error(), "kernel blowup") || !strings.Contains(p.Error(), "goroutine") {
			t.Fatalf("Error() missing value or stack: %q", p.Error())
		}
	}()
	c.Rethrow()
}

func TestCatcherNoopWhenNoPanic(t *testing.T) {
	var c Catcher
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Catch()
		}()
	}
	wg.Wait()
	c.Rethrow() // must not panic
}

func TestCatcherKeepsInnermostStackOnNestedFanOut(t *testing.T) {
	// A nested fan-out wraps the panic once; the outer Catch must pass the
	// existing *Panic through instead of re-wrapping with the outer stack.
	inner := &Panic{Value: "deep", Stack: []byte("inner-stack")}
	var outer Catcher
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer outer.Catch()
		panic(inner)
	}()
	wg.Wait()
	defer func() {
		v := recover()
		if v != inner {
			t.Fatalf("rethrown %v, want the inner *Panic unchanged", v)
		}
	}()
	outer.Rethrow()
}

func TestRangeRethrowsWorkerPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic was not rethrown on the caller")
		}
	}()
	Range(1024, 4, func(_, lo, _ int) {
		if lo > 0 {
			panic("worker died")
		}
	})
}

// TestRangeRethrowsLateChunkPanic: a panic in the last chunk claimed, after
// every worker has run several, still reaches the caller, once the other
// workers have returned.
func TestRangeRethrowsLateChunkPanic(t *testing.T) {
	const n = 100 * Chunk
	var running atomic.Int32
	defer func() {
		p, ok := recover().(*Panic)
		if !ok || p.Value != "late chunk" {
			t.Fatalf("rethrown %v, want the late chunk's *Panic", p)
		}
		if r := running.Load(); r != 0 {
			t.Fatalf("%d calls still running after Range returned", r)
		}
	}()
	Range(n, 3, func(_, lo, _ int) {
		running.Add(1)
		defer running.Add(-1)
		if lo == n-Chunk {
			panic("late chunk")
		}
	})
}

// TestRangeCoversEveryIndexOnce is the fan-out's contract: every index is
// in exactly one call, a call is one chunk (or, inline, the whole range), a
// worker index is below workers and never in two calls at once, and a range
// of many chunks is claimed in many calls.
func TestRangeCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 1001, 100 * Chunk} {
		for _, workers := range []int{0, 1, 2, 3, 8, 2000} {
			seen := make([]int32, n)
			busy := make([]atomic.Bool, max(workers, 1))
			var calls atomic.Int64
			Range(n, workers, func(w, lo, hi int) {
				if !busy[w].CompareAndSwap(false, true) {
					t.Errorf("n=%d workers=%d: worker %d in two calls at once", n, workers, w)
				}
				defer busy[w].Store(false)
				calls.Add(1)
				inline := lo == 0 && hi == n
				if !inline && (lo%Chunk != 0 || hi != min(lo+Chunk, n)) {
					t.Errorf("n=%d workers=%d: call [%d, %d) is not a chunk", n, workers, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
			if workers > 1 && n >= 64 {
				if want := int64((n + Chunk - 1) / Chunk); calls.Load() != want {
					t.Errorf("n=%d workers=%d: %d calls, want one per chunk, %d", n, workers, calls.Load(), want)
				}
			}
		}
	}
}

// TestReverseClaims: each worker meets its chunks in claim order, which is
// ascending and, with the hook on, descending.
func TestReverseClaims(t *testing.T) {
	for _, rev := range []bool{false, true} {
		ReverseClaims(rev)
		last := make([]int, 3)
		for w := range last {
			last[w] = -1
		}
		Range(50*Chunk, len(last), func(w, lo, _ int) {
			if last[w] >= 0 && (lo > last[w]) == rev {
				t.Errorf("reverse=%v: worker %d ran chunk %d after chunk %d", rev, w, lo, last[w])
			}
			last[w] = lo
		})
	}
	ReverseClaims(false)
}

// TestRangeAllocs: a fan-out costs its shared state and one goroutine start
// per worker beyond the caller, so two allocations on two workers.
func TestRangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var sum atomic.Int64
	fn := func(_, lo, hi int) { sum.Add(int64(hi - lo)) }
	for _, workers := range []int{1, 2, 4} {
		got := testing.AllocsPerRun(100, func() { Range(64*Chunk, workers, fn) })
		want := 0.0 // inline
		if workers > 1 {
			want = float64(workers)
		}
		t.Logf("%d workers: %.0f allocations", workers, got)
		if got > want {
			t.Errorf("Range over %d workers: %.1f allocations, want at most %.0f", workers, got, want)
		}
	}
}
