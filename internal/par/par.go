// Package par is the compute kernels' one fan-out (tree build, neighbor
// search, forces, gravity) and its panic containment. A physics blowup — a
// NaN position feeding an index computation, a corrupt neighbor list — must
// surface as a panic on the CALLER's goroutine, where the serving layer can
// recover it and fail the one job, never as an unrecoverable crash of a
// detached worker goroutine that takes the whole process down.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
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

// Chunk is how many indices a fan-out worker claims at a time: Range calls
// fn on [k*Chunk, min((k+1)*Chunk, n)) for every k, except on its inline
// path.
const Chunk = 32

// Range runs fn over [0, n) and waits; a worker panic is rethrown on the
// calling goroutine. min(workers, chunks) workers, the caller one of them,
// claim chunks of Chunk indices from a shared counter, so a worker whose
// chunks are cheap takes more of them. Small ranges and workers <= 1 run
// inline as one call fn(0, 0, n).
//
// The rule for fn: fn may run several times for the same w, on disjoint
// ranges, but never twice at once, so w indexes a per-worker slot (a walk
// buffer, an accumulator) that needs no lock. An accumulator (a running
// maximum, a counter) is a local of fn, merged into slot w once per call,
// after the loop, by an operation whose result does not depend on which
// chunks w got or in what order (a maximum, an integer sum). Slots of
// adjacent workers share a cache line, so an accumulator updated through a
// pointer into a per-worker slice inside the loop makes every worker's
// store invalidate the others' line on each iteration.
func Range(n, workers int, fn func(w, lo, hi int)) {
	if workers <= 1 || n < 64 {
		fn(0, 0, n)
		return
	}
	f := &fanOut{fn: fn, n: n, chunks: (n + Chunk - 1) / Chunk, reverse: reverse.Load()}
	workers = min(workers, f.chunks)
	f.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go f.work(w)
	}
	f.work(0)
	f.wg.Wait()
	f.c.Rethrow()
}

// fanOut is one Range call's state, shared by its workers.
type fanOut struct {
	wg      sync.WaitGroup
	c       Catcher
	next    atomic.Int64 // chunks claimed so far
	fn      func(w, lo, hi int)
	n       int
	chunks  int
	reverse bool
}

// work runs as worker w until every chunk is claimed. A panic stops this
// worker only; the others finish the chunks left.
func (f *fanOut) work(w int) {
	defer f.wg.Done()
	defer f.c.Catch()
	for {
		k := int(f.next.Add(1)) - 1
		if k >= f.chunks {
			return
		}
		if f.reverse {
			k = f.chunks - 1 - k
		}
		f.fn(w, k*Chunk, min((k+1)*Chunk, f.n))
	}
}

// reverse makes fan-outs claim their chunks last to first.
var reverse atomic.Bool

// ReverseClaims makes every fan-out that starts after it claim its chunks
// from the last to the first when on is true, and restores the forward
// order when it is false. A result that depends on the order chunks run in
// (a float summed across chunks, a slot written once per worker) then
// changes, which is what tests use it to show.
func ReverseClaims(on bool) { reverse.Store(on) }
