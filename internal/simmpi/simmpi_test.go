package simmpi

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/perfmodel"
)

func TestSendRecvDelivery(t *testing.T) {
	w := NewWorld(2, ZeroCost{})
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 7, 8, 42)
		} else {
			got := r.Recv(0, 7)
			if got.(int) != 42 {
				t.Errorf("Recv = %v, want 42", got)
			}
		}
	})
}

func TestRecvMatchesTagAndSource(t *testing.T) {
	w := NewWorld(3, ZeroCost{})
	w.Run(func(r *Rank) {
		switch r.ID {
		case 0:
			r.Send(2, 1, 0, "from0tag1")
			r.Send(2, 2, 0, "from0tag2")
		case 1:
			r.Send(2, 1, 0, "from1tag1")
		case 2:
			// Receive out of send order: tag 2 first.
			if got := r.Recv(0, 2); got.(string) != "from0tag2" {
				t.Errorf("tag-2 recv = %v", got)
			}
			if got := r.Recv(1, 1); got.(string) != "from1tag1" {
				t.Errorf("from-1 recv = %v", got)
			}
			if got := r.Recv(0, 1); got.(string) != "from0tag1" {
				t.Errorf("tag-1 recv = %v", got)
			}
		}
	})
}

func TestFIFOPerSourceTag(t *testing.T) {
	w := NewWorld(2, ZeroCost{})
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			for i := 0; i < 10; i++ {
				r.Send(1, 5, 0, i)
			}
		} else {
			for i := 0; i < 10; i++ {
				if got := r.Recv(0, 5).(int); got != i {
					t.Errorf("message %d arrived as %d", i, got)
				}
			}
		}
	})
}

func TestClockAdvancesWithCost(t *testing.T) {
	model := AlphaBeta{Alpha: 1e-3, Beta: 1e-9}
	w := NewWorld(2, model)
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 0, 1000, nil)
		} else {
			r.Recv(0, 0)
			want := 1e-3 + 1000e-9
			if math.Abs(r.Clock()-want) > 1e-12 {
				t.Errorf("receiver clock = %g, want %g", r.Clock(), want)
			}
			if r.IdleTime <= 0 {
				t.Errorf("no idle time recorded while waiting")
			}
		}
	})
}

func TestComputeAdvancesClock(t *testing.T) {
	w := NewWorld(1, ZeroCost{})
	max := w.Run(func(r *Rank) {
		r.Compute(0.5)
		r.Compute(0.25)
		if r.ComputeTime != 0.75 {
			t.Errorf("ComputeTime = %g", r.ComputeTime)
		}
	})
	if max != 0.75 {
		t.Errorf("world time = %g, want 0.75", max)
	}
}

func TestAllreduceMin(t *testing.T) {
	w := NewWorld(4, ZeroCost{})
	w.Run(func(r *Rank) {
		vals := []float64{float64(r.ID + 1), float64(10 - r.ID)}
		out := r.AllreduceF64(vals, MinF64)
		if out[0] != 1 || out[1] != 7 {
			t.Errorf("rank %d: allreduce = %v", r.ID, out)
		}
	})
}

func TestAllreduceSumDeterministic(t *testing.T) {
	w := NewWorld(8, ZeroCost{})
	var first atomic.Value
	w.Run(func(r *Rank) {
		out := r.AllreduceF64([]float64{0.1 * float64(r.ID)}, SumF64)
		if v := first.Swap(out[0]); v != nil && v.(float64) != out[0] {
			t.Errorf("ranks disagree: %v vs %v", v, out[0])
		}
	})
}

// TestAllreduceFoldsInRankOrder: the fold is ((v0 op v1) op v2) op v3 on
// every rank, whatever order the ranks arrive in — the order a result that
// does not depend on the rank count relies on. With op(a, b) = 10a + b over
// the values 1…4, the digits of the result spell the order.
func TestAllreduceFoldsInRankOrder(t *testing.T) {
	w := NewWorld(4, ZeroCost{})
	w.Run(func(r *Rank) {
		time.Sleep(time.Duration(w.N-r.ID) * time.Millisecond) // last rank first
		got := r.AllreduceF64([]float64{float64(r.ID + 1)}, func(a, b float64) float64 { return 10*a + b })
		if got[0] != 1234 {
			t.Errorf("rank %d: fold %g, want 1234", r.ID, got[0])
		}
	})
}

// TestCollectiveKeepsNoDeposits: once a collective has combined, the world
// holds none of the values deposited into it, so a gathered particle set
// is not kept alive by the world until the next collective.
func TestCollectiveKeepsNoDeposits(t *testing.T) {
	w := NewWorld(3, ZeroCost{})
	w.Run(func(r *Rank) {
		r.Allgather(&r.ID, 8)
		r.AllreduceF64([]float64{1}, SumF64)
	})
	for i, v := range w.collVals {
		if v != nil {
			t.Errorf("deposit %d still held: %v", i, v)
		}
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	w := NewWorld(3, ZeroCost{})
	w.Run(func(r *Rank) {
		r.Compute(float64(r.ID)) // clocks 0, 1, 2
		r.Barrier()
		if r.Clock() < 2 {
			t.Errorf("rank %d clock %g after barrier, want >= 2", r.ID, r.Clock())
		}
	})
}

func TestAllgather(t *testing.T) {
	w := NewWorld(4, ZeroCost{})
	w.Run(func(r *Rank) {
		out := r.Allgather(r.ID*10, 8)
		for i, v := range out {
			if v.(int) != i*10 {
				t.Errorf("rank %d: gathered[%d] = %v", r.ID, i, v)
			}
		}
	})
}

func TestCollectiveCostCharged(t *testing.T) {
	model := AlphaBeta{Alpha: 1e-3}
	w := NewWorld(4, model)
	wall := w.Run(func(r *Rank) {
		r.Barrier()
	})
	// ceil(log2 4) = 2 rounds of alpha.
	if math.Abs(wall-2e-3) > 1e-9 {
		t.Errorf("barrier wall = %g, want 2e-3", wall)
	}
}

func TestSelfSendFree(t *testing.T) {
	model := AlphaBeta{Alpha: 1, Beta: 1}
	w := NewWorld(1, model)
	wall := w.Run(func(r *Rank) {
		r.Send(0, 0, 1000, "x")
		if got := r.Recv(0, 0); got.(string) != "x" {
			t.Errorf("self recv = %v", got)
		}
	})
	if wall != 0 {
		t.Errorf("self send cost %g, want 0", wall)
	}
}

func TestWorldPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0, ZeroCost{})
}

func TestPerfmodelNetIntraVsInter(t *testing.T) {
	m := perfmodel.PizDaint()
	net := m.NewNet(24, 12) // 2 nodes
	intra := net.PointToPoint(0, 5, 1000)
	inter := net.PointToPoint(0, 13, 1000)
	if intra >= inter {
		t.Errorf("intra-node cost %g >= inter-node %g", intra, inter)
	}
}

func TestPerfmodelDragonflyTopologyKicksIn(t *testing.T) {
	m := perfmodel.PizDaint()
	small := m.NewNet(24, 12)
	big := m.NewNet(12000, 12)
	if small.PointToPoint(0, 13, 0) >= big.PointToPoint(0, 9000, 0) {
		t.Error("large dragonfly not slower than small")
	}
	mn := perfmodel.MareNostrum()
	flat1 := mn.NewNet(96, 48)
	flat2 := mn.NewNet(9600, 48)
	if flat1.PointToPoint(0, 50, 0) != flat2.PointToPoint(0, 5000, 0) {
		t.Error("fat tree should be size-independent")
	}
}

func TestPhaseSecondsAmdahl(t *testing.T) {
	m := perfmodel.PizDaint()
	serial := m.PhaseSeconds(1e6, 1e6, 1, 0.1)
	if math.Abs(serial-1) > 1e-12 {
		t.Fatalf("1-thread time = %g, want 1", serial)
	}
	t12 := m.PhaseSeconds(1e6, 1e6, 12, 0.1)
	want := 0.1 + 0.9/12
	if math.Abs(t12-want) > 1e-12 {
		t.Fatalf("12-thread time = %g, want %g", t12, want)
	}
	if m.PhaseSeconds(0, 1e6, 4, 0) != 0 {
		t.Fatal("zero work costs time")
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"daint", "marenostrum", "mn4"} {
		if _, err := perfmodel.ByName(n); err != nil {
			t.Errorf("ByName(%q): %v", n, err)
		}
	}
	if _, err := perfmodel.ByName("summit"); err == nil {
		t.Error("unknown machine accepted")
	}
}

func BenchmarkPingPong(b *testing.B) {
	w := NewWorld(2, ZeroCost{})
	b.ResetTimer()
	w.Run(func(r *Rank) {
		for i := 0; i < b.N; i++ {
			if r.ID == 0 {
				r.Send(1, 0, 8, i)
				r.Recv(1, 1)
			} else {
				r.Recv(0, 0)
				r.Send(0, 1, 8, i)
			}
		}
	})
}

func BenchmarkAllreduce8(b *testing.B) {
	w := NewWorld(8, ZeroCost{})
	b.ResetTimer()
	w.Run(func(r *Rank) {
		v := []float64{1}
		for i := 0; i < b.N; i++ {
			r.AllreduceF64(v, SumF64)
		}
	})
}

// TestPhaseTimingInvariants pins the per-phase accounting contract the
// scaling studies rely on: CommTime splits exactly into HaloTime
// (point-to-point) + CollectiveTime, and the simulated clock decomposes
// into ComputeTime + CommTime.
func TestPhaseTimingInvariants(t *testing.T) {
	model := AlphaBeta{Alpha: 1e-3, Beta: 1e-8}
	w := NewWorld(4, model)
	w.Run(func(r *Rank) {
		for step := 0; step < 3; step++ {
			// Uneven compute creates genuine waits on both paths.
			r.Compute(float64(r.ID+1) * 1e-2)
			next := (r.ID + 1) % w.N
			prev := (r.ID + w.N - 1) % w.N
			r.Send(next, 1, 1<<12, r.ID)
			r.Recv(prev, 1)
			r.AllreduceF64([]float64{float64(r.ID)}, MaxF64)
		}

		const tol = 1e-12
		if d := math.Abs(r.CommTime - (r.HaloTime + r.CollectiveTime)); d > tol*math.Max(1, r.CommTime) {
			t.Errorf("rank %d: CommTime %.12g != Halo %.12g + Collective %.12g",
				r.ID, r.CommTime, r.HaloTime, r.CollectiveTime)
		}
		if d := math.Abs(r.Clock() - (r.ComputeTime + r.CommTime)); d > tol*math.Max(1, r.Clock()) {
			t.Errorf("rank %d: clock %.12g != Compute %.12g + Comm %.12g",
				r.ID, r.Clock(), r.ComputeTime, r.CommTime)
		}
		if r.HaloTime < 0 || r.CollectiveTime < 0 {
			t.Errorf("rank %d: negative phase time (halo %g, collective %g)", r.ID, r.HaloTime, r.CollectiveTime)
		}
		if r.CollectiveTime == 0 {
			t.Errorf("rank %d: collectives ran but CollectiveTime is zero", r.ID)
		}
	})
}

func TestRunContainsRankPanic(t *testing.T) {
	// One rank panicking must release the ranks blocked in a collective and
	// in a Recv whose sender died — Run joins, and the panic is reported
	// through Failure instead of crashing the process.
	w := NewWorld(4, ZeroCost{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(func(r *Rank) {
			switch r.ID {
			case 0:
				panic("rank 0 exploded")
			case 1:
				r.Recv(0, 7) // message rank 0 will never send
			default:
				r.AllreduceF64([]float64{1}, SumF64) // collective rank 0 never joins
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Run deadlocked after a rank panic")
	}
	v, ok := w.Failure()
	if !ok {
		t.Fatal("Failure() reports no abort after a rank panic")
	}
	if v != "rank 0 exploded" {
		t.Fatalf("Failure() = %v, want the original panic value", v)
	}
}

func TestRunNoFailureOnCleanWorld(t *testing.T) {
	w := NewWorld(2, ZeroCost{})
	w.Run(func(r *Rank) { r.Barrier() })
	if v, ok := w.Failure(); ok {
		t.Fatalf("Failure() = %v on a clean run", v)
	}
}
