package runloop

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

func TestRunResumesFromCheckpoint(t *testing.T) {
	var calls []base
	c := ck(t)
	st := newSet()
	st.ID[0] = 6
	if err := c.Write(6, 3, st); err != nil {
		t.Fatal(err)
	}
	var restored []int
	res, err := loop(Env{
		Checkpointer: c, Resume: true,
		OnRestore: func(step int, simTime float64) { restored = append(restored, step) },
	}, 10, newSet(), fakeChunk(t, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 10 || res.SimTime != 5 {
		t.Fatalf("result %+v, want steps=10 simTime=5", res)
	}
	if len(restored) != 1 || restored[0] != 6 {
		t.Fatalf("OnRestore calls %v, want [6]", restored)
	}
	if len(calls) != 1 || calls[0] != (base{6, 3}) {
		t.Fatalf("chunk calls %+v, want one chunk from base {6 3}", calls)
	}
}

func TestRunIgnoresOversizedCheckpointUnlessMustResume(t *testing.T) {
	c := ck(t)
	if err := c.Write(50, 25, newSet()); err != nil {
		t.Fatal(err)
	}
	// Without MustResume a checkpoint beyond TotalSteps means a fresh run
	// (the server's semantics: the spec hash owns the directory, so this
	// only happens across spec changes).
	var calls []base
	res, err := loop(Env{
		Checkpointer: c, Resume: true,
	}, 10, newSet(), fakeChunk(t, &calls))
	if err != nil || res.Steps != 10 || len(calls) != 1 || calls[0] != (base{}) {
		t.Fatalf("res=%+v err=%v calls=%+v, want fresh 10-step run", res, err, calls)
	}
	// With MustResume it is an explicit error.
	if _, err := loop(Env{
		Checkpointer: c, Resume: true, MustResume: true,
	}, 10, newSet(), fakeChunk(t, &calls)); err == nil {
		t.Fatal("oversized checkpoint accepted under MustResume")
	}
	// MustResume with no checkpoint at all is also an error.
	if _, err := loop(Env{
		Checkpointer: ck(t), Resume: true, MustResume: true,
	}, 10, newSet(), fakeChunk(t, &calls)); err == nil {
		t.Fatal("missing checkpoint accepted under MustResume")
	}
	// A checkpoint of the older SPH1 record format is unreadable: a fresh
	// run without MustResume, an error naming the magic with it.
	old := ck(t)
	if err := old.Write(5, 2.5, newSet()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(old.Dir, "ckpt-000000005.sph")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[bytes.IndexByte(raw, '\n')+1] = '1' // the magic's low byte: "SPH2" becomes "SPH1"
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	calls = nil
	res, err = loop(Env{Checkpointer: old, Resume: true}, 10, newSet(), fakeChunk(t, &calls))
	if err != nil || res.Steps != 10 || len(calls) != 1 || calls[0] != (base{}) {
		t.Fatalf("SPH1 checkpoint: res=%+v err=%v calls=%+v, want fresh 10-step run", res, err, calls)
	}
	if _, err := loop(Env{
		Checkpointer: old, Resume: true, MustResume: true,
	}, 10, newSet(), fakeChunk(t, &calls)); err == nil || !strings.Contains(err.Error(), `"SPH1"`) {
		t.Fatalf("SPH1 checkpoint under MustResume: error %v, want one naming the magic", err)
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
