// Package simmpi is a simulated message-passing runtime: the mini-app's
// substitute for MPI on the paper's testbeds (Piz Daint and MareNostrum 4,
// which this reproduction cannot access). Ranks run as goroutines and
// exchange typed messages through mailboxes; every communication and
// compute phase advances a per-rank *simulated clock* according to a
// pluggable machine model (internal/perfmodel), so strong-scaling curves are
// deterministic functions of the communication pattern and modeled costs —
// exactly the "skeleton application" idea the paper cites [48], inverted:
// real computation, modeled network.
//
// Semantics follow MPI's eager mode: Send never blocks; Recv(from, tag)
// blocks until a matching message arrives. Collectives (Barrier,
// AllreduceF64, Allgather) synchronize simulated clocks like their MPI
// counterparts; all three are one rendezvous, combined in rank order.
package simmpi

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// CostModel prices communication and synchronization on the modeled
// machine. Implementations must be safe for concurrent use.
type CostModel interface {
	// PointToPoint returns the simulated seconds for a message of the given
	// byte size between two ranks (topology-aware: same node vs. network).
	PointToPoint(from, to int, bytes int) float64
	// Collective returns the simulated seconds a collective over n ranks
	// with the given per-rank payload takes.
	Collective(n int, bytes int) float64
}

// ZeroCost is a CostModel with free communication, for tests that only care
// about message semantics.
type ZeroCost struct{}

// PointToPoint implements CostModel.
func (ZeroCost) PointToPoint(from, to, bytes int) float64 { return 0 }

// Collective implements CostModel.
func (ZeroCost) Collective(n, bytes int) float64 { return 0 }

// AlphaBeta is the classic latency/bandwidth model:
// t = Alpha + bytes*Beta, collectives pay ceil(log2 n) rounds.
type AlphaBeta struct {
	Alpha float64 // seconds per message
	Beta  float64 // seconds per byte
}

// PointToPoint implements CostModel.
func (m AlphaBeta) PointToPoint(from, to, bytes int) float64 {
	return m.Alpha + float64(bytes)*m.Beta
}

// Collective implements CostModel.
func (m AlphaBeta) Collective(n, bytes int) float64 {
	if n <= 1 {
		return 0
	}
	rounds := math.Ceil(math.Log2(float64(n)))
	return rounds * (m.Alpha + float64(bytes)*m.Beta)
}

type message struct {
	from, tag int
	data      any
	arrival   float64 // simulated arrival time at the receiver
}

type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
	aborted bool
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	mb.pending = append(mb.pending, m)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// take blocks until a message with the given source and tag is present and
// removes it (first matching, preserving per-source-tag FIFO order). When
// the world aborts, blocked takes unwind with worldAborted instead of
// waiting forever for a message their dead peer will never send.
func (mb *mailbox) take(from, tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.pending {
			if m.from == from && m.tag == tag {
				mb.pending = append(mb.pending[:i], mb.pending[i+1:]...)
				return m
			}
		}
		if mb.aborted {
			panic(worldAborted{})
		}
		mb.cond.Wait()
	}
}

func (mb *mailbox) abort() {
	mb.mu.Lock()
	mb.aborted = true
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// World is a set of ranks sharing a cost model and collective state.
type World struct {
	N     int
	Model CostModel

	boxes  []*mailbox
	clocks []float64

	collMu    sync.Mutex
	collCond  *sync.Cond
	collVals  []any
	collCount int
	collGen   int
	collOut   any
	collMax   float64

	// aborted/failure record the first rank panic (guarded by collMu).
	// Once set, every blocked collective and mailbox wait unwinds with a
	// worldAborted panic so Run can join instead of deadlocking.
	aborted bool
	failure any
}

// worldAborted is the panic value that unwinds ranks blocked in a
// collective or Recv after another rank panicked. It is swallowed by Run's
// per-rank recover: only the original panic is reported.
type worldAborted struct{}

// NewWorld creates a world of n ranks priced by model.
func NewWorld(n int, model CostModel) *World {
	if n <= 0 {
		panic(fmt.Sprintf("simmpi: world size %d", n))
	}
	w := &World{N: n, Model: model, boxes: make([]*mailbox, n), clocks: make([]float64, n), collVals: make([]any, n)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	w.collCond = sync.NewCond(&w.collMu)
	return w
}

// Run executes fn on every rank concurrently and blocks until all return.
// It returns the maximum simulated clock across ranks (the parallel
// wall-clock of the run).
//
// A panic on any rank aborts the world: the other ranks are released from
// whatever collective or Recv they are blocked in, Run joins normally, and
// the original panic value is available from Failure. This turns a physics
// blowup inside one rank goroutine into a per-run error the serving layer
// can attribute to the one job, instead of an unrecoverable process crash.
func (w *World) Run(fn func(r *Rank)) float64 {
	var wg sync.WaitGroup
	for i := 0; i < w.N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				v := recover()
				if v == nil {
					return
				}
				if _, ok := v.(worldAborted); ok {
					return // secondary victim of another rank's panic
				}
				w.abort(v)
			}()
			fn(&Rank{ID: i, W: w})
		}(i)
	}
	wg.Wait()
	return w.maxClock()
}

// maxClock is the latest rank clock. A NaN clock never wins.
func (w *World) maxClock() float64 {
	var max float64
	for _, c := range w.clocks {
		if c > max {
			max = c
		}
	}
	return max
}

// abort records the first failure and wakes every blocked rank.
func (w *World) abort(v any) {
	w.collMu.Lock()
	if !w.aborted {
		w.aborted = true
		w.failure = v
	}
	w.collCond.Broadcast()
	w.collMu.Unlock()
	for _, mb := range w.boxes {
		mb.abort()
	}
}

// Failure returns the panic value of the rank that aborted the world, if
// any rank panicked during Run.
func (w *World) Failure() (any, bool) {
	w.collMu.Lock()
	defer w.collMu.Unlock()
	return w.failure, w.aborted
}

// Rank is one simulated process. All methods must be called only from the
// goroutine running this rank.
type Rank struct {
	ID int
	W  *World

	// CommTime and ComputeTime decompose the simulated clock for the POP
	// efficiency metrics (internal/trace). CommTime further splits into
	// HaloTime (point-to-point transfers and their waits — the halo
	// exchanges of the SPH step) and CollectiveTime (allreduce / allgather
	// / barrier synchronization), so scaling studies can attribute lost
	// time to the phase that lost it. Invariants, up to float addition
	// order: CommTime == HaloTime + CollectiveTime and the rank's clock ==
	// ComputeTime + CommTime.
	CommTime       float64
	HaloTime       float64
	CollectiveTime float64
	ComputeTime    float64
	IdleTime       float64
}

// Clock returns the rank's simulated time.
func (r *Rank) Clock() float64 { return r.W.clocks[r.ID] }

// advance moves the simulated clock forward.
func (r *Rank) advance(dt float64) { w := r.W; w.clocks[r.ID] += dt }

// Compute charges seconds of useful computation to the simulated clock.
func (r *Rank) Compute(seconds float64) {
	if seconds < 0 {
		seconds = 0
	}
	r.advance(seconds)
	r.ComputeTime += seconds
}

// Send delivers data to rank `to` with a tag. bytes is the modeled payload
// size (the real data travels by reference; only the clock cares about
// bytes). Send is eager: it never blocks.
// A self-send arrives at once; any other arrives after the modeled transfer.
func (r *Rank) Send(to, tag, bytes int, data any) {
	arrival := r.Clock()
	if to != r.ID {
		arrival += r.W.Model.PointToPoint(r.ID, to, bytes)
	}
	r.W.boxes[to].put(message{from: r.ID, tag: tag, data: data, arrival: arrival})
}

// Recv blocks until a message from `from` with `tag` arrives and returns its
// payload. The simulated clock advances to max(now, arrival): any gap is
// idle (wait) time, attributed to CommTime per MPI accounting.
func (r *Rank) Recv(from, tag int) any {
	m := r.W.boxes[r.ID].take(from, tag)
	// Unpacking overhead is folded into the sender-side cost model.
	wait := r.waitUntil(m.arrival)
	r.CommTime += wait
	r.HaloTime += wait
	return m.data
}

// waitUntil idles the clock forward to t if it is behind and returns the
// wait.
func (r *Rank) waitUntil(t float64) float64 {
	wait := math.Max(0, t-r.Clock())
	if wait > 0 {
		r.IdleTime += wait
		r.advance(wait)
	}
	return wait
}

// Barrier synchronizes all ranks: every clock advances to the global
// maximum plus the modeled collective cost.
func (r *Rank) Barrier() { r.collective(nil, 0, func([]any) any { return nil }) }

// AllreduceF64 reduces float64 slices element-wise with op, folding in rank
// order so the result is deterministic, and returns it on every rank. The
// result is one slice shared by all ranks: read it, do not write it.
func (r *Rank) AllreduceF64(vals []float64, op func(a, b float64) float64) []float64 {
	return r.collective(vals, 8*len(vals), func(deps []any) any {
		out := slices.Clone(deps[0].([]float64))
		for _, d := range deps[1:] {
			for i, v := range d.([]float64) {
				out[i] = op(out[i], v)
			}
		}
		return out
	}).([]float64)
}

// Allgather collects each rank's val into a slice indexed by rank, on every
// rank. bytes models the per-rank payload. The slice is shared by all
// ranks: read it, do not write it.
func (r *Rank) Allgather(val any, bytes int) []any {
	return r.collective(val, bytes*r.W.N, func(deps []any) any { return slices.Clone(deps) }).([]any)
}

// collective is the one rendezvous every collective is: each rank deposits
// val, the last to arrive combines the deposits (indexed by rank; cleared
// after) and releases the others. Every rank returns the combined value,
// its clock at the latest rank clock plus the modeled cost for bytes.
func (r *Rank) collective(val any, bytes int, combine func(deps []any) any) any {
	w := r.W
	// The critical section runs in a closure with a deferred unlock so a
	// panic (combine blowing up, or the abort unwind below) never leaves
	// collMu held — the abort path needs it to release the others.
	out, maxClock := func() (any, float64) {
		w.collMu.Lock()
		defer w.collMu.Unlock()
		if w.aborted {
			panic(worldAborted{})
		}
		gen := w.collGen
		w.collVals[r.ID] = val
		w.collCount++
		if w.collCount == w.N {
			w.collOut = combine(w.collVals)
			clear(w.collVals)
			w.collMax = w.maxClock()
			w.collCount = 0
			w.collGen++
			w.collCond.Broadcast()
		} else {
			for gen == w.collGen {
				if w.aborted {
					panic(worldAborted{})
				}
				w.collCond.Wait()
			}
		}
		return w.collOut, w.collMax
	}()

	wait := r.waitUntil(maxClock)
	cost := w.Model.Collective(w.N, bytes)
	r.advance(cost)
	spent := cost + wait
	r.CommTime += spent
	r.CollectiveTime += spent
	return out
}

// MinF64 returns the smaller value.
func MinF64(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// MaxF64 returns the larger value.
func MaxF64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// SumF64 returns the sum.
func SumF64(a, b float64) float64 { return a + b }
