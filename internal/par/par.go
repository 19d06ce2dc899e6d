// Package par contains the panic-containment primitive shared by the
// goroutine fan-outs in the compute kernels (tree build, neighbor search,
// forces, gravity). A physics blowup — a NaN position feeding an index
// computation, a corrupt neighbor list — must surface as a panic on the
// CALLER's goroutine, where the serving layer can recover it and fail the
// one job, never as an unrecoverable crash of a detached worker goroutine
// that takes the whole process down.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Panic is a panic captured on a worker goroutine, rethrown on the caller's
// goroutine with the worker's original stack preserved.
type Panic struct {
	Value any
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("panic: %v\n\nworker goroutine stack:\n%s", p.Value, p.Stack)
}

// Catcher collects the first panic among a group of worker goroutines.
// Each goroutine defers Catch; the goroutine that spawned them calls
// Rethrow after the group joins.
type Catcher struct {
	mu sync.Mutex
	// first is the panic kept for Rethrow; guarded by mu.
	first *Panic
}

// Catch must be deferred directly by each worker goroutine.
func (c *Catcher) Catch() {
	v := recover()
	if v == nil {
		return
	}
	c.mu.Lock()
	if c.first == nil {
		if p, ok := v.(*Panic); ok {
			// Already wrapped by a nested fan-out: keep the innermost stack.
			c.first = p
		} else {
			c.first = &Panic{Value: v, Stack: debug.Stack()}
		}
	}
	c.mu.Unlock()
}

// Rethrow re-panics on the calling goroutine with the first captured panic,
// if any. No-op when every worker returned normally.
func (c *Catcher) Rethrow() {
	c.mu.Lock()
	p := c.first
	c.mu.Unlock()
	if p != nil {
		panic(p)
	}
}

// Range splits [0, n) into at most `workers` contiguous chunks, runs
// fn(w, lo, hi) for chunk w on its own goroutine and waits; a worker panic is
// rethrown on the calling goroutine. Small ranges and workers <= 1 run inline
// as chunk 0.
//
// The rule for fn: a per-worker accumulator (a running maximum, a counter) is
// a local of fn, stored to its slot w once, after the loop. Slots of adjacent
// workers share a cache line, so an accumulator updated through a pointer
// into a per-worker slice inside the loop makes every worker's store
// invalidate the others' line on each iteration.
func Range(n, workers int, fn func(w, lo, hi int)) {
	if workers <= 1 || n < 64 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	var c Catcher
	chunk := (n + workers - 1) / workers
	for w := 0; w*chunk < n; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Catch()
			fn(w, lo, hi)
		}()
	}
	wg.Wait()
	c.Rethrow()
}
