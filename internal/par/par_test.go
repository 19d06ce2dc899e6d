package par

import (
	"strings"
	"sync"
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

func TestRangeCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 1000, 1001} {
		for _, workers := range []int{0, 1, 3, 8, 2000} {
			seen := make([]int32, n)
			slots := make([]bool, max(workers, 1))
			Range(n, workers, func(w, lo, hi int) {
				slots[w] = true // w must index a per-worker slice of len workers
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
		}
	}
}
