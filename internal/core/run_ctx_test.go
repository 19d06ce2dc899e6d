package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/eos"
	"repro/internal/ic"
	"repro/internal/kernel"
	"repro/internal/sph"
)

func cubeSim(t *testing.T) *Sim {
	t.Helper()
	ps, pbc, box := ic.UniformCube(nil, 6, 20)
	cfg := Config{SPH: sph.Params{
		Kernel: kernel.NewM4(), EOS: eos.NewIdealGas(5.0 / 3.0),
		NNeighbors: 20, PBC: pbc, Box: box,
	}}
	sim, err := New(cfg, ps)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestRunOnStepAndCancel: the shared-memory Run mirrors the distributed
// engine's hooks — OnStep observes every completed step, and cancelling the
// context stops the loop at the next step boundary, returning the
// cancellation cause with the state consistent.
func TestRunOnStepAndCancel(t *testing.T) {
	sim := cubeSim(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sim.Ctx = ctx

	const stopAfter = 2
	var seen []int
	sim.OnStep = func(info StepInfo) {
		seen = append(seen, info.Step)
		if info.DT <= 0 {
			t.Errorf("step %d: dt=%g", info.Step, info.DT)
		}
		if len(seen) >= stopAfter {
			cancel()
		}
	}

	infos, err := sim.Run(10, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(infos) != stopAfter || len(seen) != stopAfter {
		t.Fatalf("ran %d steps (OnStep saw %d), want %d", len(infos), len(seen), stopAfter)
	}
	for i, s := range seen {
		if s != i {
			t.Fatalf("OnStep order %v", seen)
		}
	}
	if sim.StepN != stopAfter {
		t.Fatalf("StepN=%d after cancellation, want %d", sim.StepN, stopAfter)
	}
	// The boundary state is consistent: it can be synchronized and reused.
	sim.Synchronize()
	if err := sim.PS.Validate(); err != nil {
		t.Fatalf("state invalid after cancelled run: %v", err)
	}
}

// TestRunCancelCause: a cancellation cause set through WithCancelCause is
// what Run returns — callers distinguish interrupts from internal aborts.
func TestRunCancelCause(t *testing.T) {
	sim := cubeSim(t)
	boom := errors.New("abort: detector tripped")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	sim.Ctx = ctx
	sim.OnStep = func(info StepInfo) { cancel(boom) }

	infos, err := sim.Run(5, 0)
	if !errors.Is(err, boom) {
		t.Fatalf("want cause %v, got %v", boom, err)
	}
	if len(infos) != 1 {
		t.Fatalf("ran %d steps before the caused cancel, want 1", len(infos))
	}
}

// TestRunNilCtxUnchanged: without a context the loop behaves exactly as
// before — nSteps steps, no error.
func TestRunNilCtxUnchanged(t *testing.T) {
	sim := cubeSim(t)
	var count int
	sim.OnStep = func(StepInfo) { count++ }
	infos, err := sim.Run(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 || count != 3 {
		t.Fatalf("ran %d steps, OnStep saw %d, want 3", len(infos), count)
	}
}
