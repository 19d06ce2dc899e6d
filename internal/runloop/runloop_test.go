package runloop

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/conserve"
	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/part"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// fakeChunk advances a counter instead of a simulation: each "step" costs
// 0.5 time units, and the particle state's first ID records the step count
// so checkpoints are distinguishable.
func fakeChunk(t *testing.T, calls *[]base) chunk {
	return func(ctx context.Context, ps *part.Set, b base, steps int) (Result, error) {
		*calls = append(*calls, b)
		out := ps.Clone()
		out.ID[0] = int64(b.Step + steps)
		return Result{PS: out, Steps: steps, SimTime: 0.5 * float64(steps)}, nil
	}
}

func newSet() *part.Set {
	ps := part.New(4)
	for i := range ps.Mass {
		ps.Mass[i] = 1
		ps.H[i] = 1
	}
	return ps
}

// columnsCRC fingerprints every column of ps bit for bit, the in-memory ones
// included: Checksum covers only the stored record.
func columnsCRC(ps *part.Set) uint64 {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	for v, i := reflect.ValueOf(*ps), 0; i < v.NumField(); i++ {
		col := v.Field(i).Interface()
		if n, ok := col.(int); ok {
			col = int64(n) // NLocal
		}
		if err := binary.Write(h, binary.LittleEndian, col); err != nil {
			panic(err) // every other field is a column of a fixed-size type
		}
	}
	return h.Sum64()
}

func ck(t *testing.T) *ft.Checkpointer {
	t.Helper()
	return &ft.Checkpointer{Dir: filepath.Join(t.TempDir(), "ck")}
}

func TestRunChunksAndCheckpoints(t *testing.T) {
	var calls []base
	c := ck(t)
	res, err := loop(Env{
		Checkpointer: c,
	}, 25, newSet(), fakeChunk(t, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 25 || res.SimTime != 12.5 || res.Cancelled {
		t.Fatalf("result %+v, want 25 steps, simTime 12.5", res)
	}
	want := []base{{0, 0}, {10, 5}, {20, 10}}
	if len(calls) != len(want) {
		t.Fatalf("chunk calls %+v, want %+v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("chunk %d base %+v, want %+v", i, calls[i], want[i])
		}
	}
	// Interim checkpoints exist (the last one at step 20); no final-step
	// checkpoint is written by the loop itself.
	ps, step, simTime, err := c.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if step != 20 || simTime != 10 || ps.ID[0] != 20 {
		t.Fatalf("restored step %d simTime %g id %d, want 20 / 10 / 20", step, simTime, ps.ID[0])
	}
}

// TestRunContinuesFrom: a run from a given state counts on from its step
// and sim time, in one chunk up to the total.
func TestRunContinuesFrom(t *testing.T) {
	var calls []base
	st := newSet()
	st.ID[0] = 6
	res, err := loop(Env{
		From: &Start{PS: st, Step: 6, SimTime: 3},
	}, 10, newSet(), fakeChunk(t, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 10 || res.SimTime != 5 || res.PS.ID[0] != 10 {
		t.Fatalf("result %+v, want steps=10 simTime=5 from the given state", res)
	}
	if len(calls) != 1 || calls[0] != (base{6, 3}) {
		t.Fatalf("chunk calls %+v, want one chunk from base {6 3}", calls)
	}
}

// TestRunRejectsStartPastTotal: a start beyond the run's total steps is an
// error, not a fresh run.
func TestRunRejectsStartPastTotal(t *testing.T) {
	var calls []base
	_, err := loop(Env{
		From: &Start{PS: newSet(), Step: 50, SimTime: 25},
	}, 10, newSet(), fakeChunk(t, &calls))
	if err == nil || len(calls) != 0 {
		t.Fatalf("start at step 50 of 10: err=%v calls=%+v, want an error and no chunk", err, calls)
	}
}

// TestRunStopsOnCancelledChunk: with no checkpointer the run is still cut
// at DefaultChunkSteps, and a chunk's cancellation ends it.
func TestRunStopsOnCancelledChunk(t *testing.T) {
	var calls []base
	cancelAfter := func(ctx context.Context, ps *part.Set, b base, steps int) (Result, error) {
		calls = append(calls, b)
		if b.Step >= 10 {
			// Simulate an engine observing cancellation mid-chunk.
			return Result{PS: ps, Steps: 1, SimTime: 0.5, Cancelled: true}, nil
		}
		return Result{PS: ps, Steps: steps, SimTime: 0.5 * float64(steps)}, nil
	}
	res, err := loop(Env{}, 30, newSet(), cancelAfter)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled || res.Steps != 11 {
		t.Fatalf("result %+v, want cancelled at 11 steps", res)
	}
}

func TestRunPropagatesChunkError(t *testing.T) {
	boom := errors.New("engine exploded")
	_, err := loop(Env{}, 4, newSet(),
		func(ctx context.Context, ps *part.Set, b base, steps int) (Result, error) {
			return Result{}, boom
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the chunk error", err)
	}
}

func TestRunObservesContextBeforeChunk(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls []base
	res, err := loop(Env{Ctx: ctx}, 4, newSet(), fakeChunk(t, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled || len(calls) != 0 {
		t.Fatalf("res=%+v calls=%d, want immediate cancellation with no chunks", res, len(calls))
	}
}

// TestExecuteWithoutRecorder: a nil Env.Recorder means no telemetry, like
// every other nil Env field means "off" — the run completes with a report
// and the final state of a recorded run, and OnStep still sees every step.
func TestExecuteWithoutRecorder(t *testing.T) {
	params := scenario.Params{N: 216, NNeighbors: 20}
	for name, spec := range map[string]scenario.JobSpec{
		"serial": {
			Spec: scenario.Spec{Scenario: "sod", Params: params, Steps: 2},
			Exec: scenario.Exec{Backend: scenario.BackendSerial},
		},
		"cores-2": {
			Spec: scenario.Spec{Scenario: "sod", Params: params, Steps: 2, Cores: 2, RanksPerNode: 2},
			Exec: scenario.Exec{Machine: "daint"},
		},
	} {
		t.Run(name, func(t *testing.T) {
			spec, err := spec.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			recorded, err := Execute(spec, Env{Recorder: telemetry.NewRecorder(nil)})
			if err != nil {
				t.Fatal(err)
			}
			bare, err := Execute(spec, Env{})
			if err != nil {
				t.Fatal(err)
			}
			if bare.Report == nil || bare.Steps != spec.Steps {
				t.Fatalf("zero Env: report %v after %d steps, want a report after %d", bare.Report, bare.Steps, spec.Steps)
			}
			if got, want := columnsCRC(bare.PS), columnsCRC(recorded.PS); got != want {
				t.Fatalf("zero Env: final columns %016x, with a recorder %016x", got, want)
			}
			var steps atomic.Int32
			if _, err := Execute(spec, Env{OnStep: func(core.StepReport, conserve.State, *part.Set) { steps.Add(1) }}); err != nil {
				t.Fatal(err)
			}
			if int(steps.Load()) != spec.Steps {
				t.Fatalf("OnStep saw %d steps without a recorder, want %d", steps.Load(), spec.Steps)
			}
		})
	}
}
