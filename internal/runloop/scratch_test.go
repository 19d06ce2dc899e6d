package runloop

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/conserve"
	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/part"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/ts"
)

// reuseCase is one execution of the reuse fence's sequence.
type reuseCase struct {
	spec     scenario.JobSpec
	adaptive bool // ts.Adaptive instead of the scenario's fixed-rule dt
	killAt   int  // > 0: cancel after this step, resume from its state
}

func (c reuseCase) String() string {
	shape := "serial"
	if c.spec.Exec.Backend != scenario.BackendSerial {
		shape = fmt.Sprintf("%d-cores", c.spec.Cores)
	}
	return fmt.Sprintf("%s/n=%d/nn=%d/%s/adaptive=%v/kill=%d", c.spec.Scenario,
		c.spec.Params.N, c.spec.Params.NNeighbors, shape, c.adaptive, c.killAt)
}

// reuseSequence is the fence's fixed sequence of differing jobs: every
// registered scenario (evrard is the one with gravity), its particle count
// and neighbour target going up and then down, serial and on four ranks,
// fixed and adaptive dt, and a kill with resume on each backend. Every job
// runs two steps past one chunk, so a distributed job's merged state is
// also the next chunk's input, and a killed job is killed one step into its
// second chunk, after the loop's checkpoint at the first chunk's end.
func reuseSequence(t *testing.T) []reuseCase {
	var seq []reuseCase
	job := func(name string, n, nn, cores, killAt int, adaptive bool) {
		spec := scenario.JobSpec{Spec: scenario.Spec{Scenario: name,
			Params: scenario.Params{N: n, NNeighbors: nn}, Steps: DefaultChunkSteps + 2}}
		if cores == 0 {
			spec.Exec.Backend = scenario.BackendSerial
		} else {
			spec.Cores, spec.RanksPerNode = cores, cores
		}
		spec, err := spec.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, reuseCase{spec: spec, adaptive: adaptive, killAt: killAt})
	}
	for _, name := range scenario.Names() {
		job(name, 216, 20, 0, 0, false)
		job(name, 343, 28, 4, 0, true)
		job(name, 125, 16, 4, 0, false)
		job(name, 125, 24, 0, 0, true)
	}
	kill := DefaultChunkSteps + 1
	job("sedov", 343, 24, 0, kill, false)
	job("square", 216, 20, 4, kill, true)
	job("evrard", 125, 18, 0, 0, false)
	// A job after one more than four times its size runs on the large
	// scratch, and the job after it starts on a new one: on each backend,
	// once completing and once killed and resumed, so a result and a killed
	// run's state are taken from a scratch that has just shrunk.
	for _, cores := range []int{0, 4} {
		job("sedov", 1000, 20, cores, 0, false)
		job("sedov", 125, 20, cores, 0, false)
		job("sedov", 1000, 20, cores, 0, false)
		job("sedov", 125, 20, cores, kill, false)
	}
	return seq
}

// executeCase runs c as the server runs a job (a flight recorder, a kill
// as a cancelled context followed by a resume from the state it stopped at,
// sent through the frame encoding) on sc and renders its snapshot, report
// and track bytes. The track's serial phase
// seconds are wall-clock time and are left out.
func executeCase(t *testing.T, c reuseCase, sc *Scratch) (snap, report, track []byte) {
	t.Helper()
	rec := telemetry.NewRecorder(nil)
	env := Env{Scratch: sc, Recorder: rec}
	if c.adaptive {
		env.Configure = func(cfg *core.Config, _ *part.Set) { cfg.Stepping = ts.Adaptive }
	}
	if c.killAt > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		env.Ctx, env.Checkpointer = ctx, &ft.Checkpointer{Dir: t.TempDir()}
		env.OnStep = func(rep core.StepReport, _ conserve.State, _ *part.Set) {
			if rep.Step+1 == c.killAt {
				cancel()
			}
		}
		res, err := Execute(c.spec, env)
		if err != nil || !res.Cancelled || res.Steps != c.killAt {
			t.Fatalf("%v: killed run: %v, cancelled %v at step %d", c, err, res.Cancelled, res.Steps)
		}
		if _, step, _, err := env.Checkpointer.Restore(); err != nil || step != DefaultChunkSteps {
			t.Fatalf("%v: killed run's interim checkpoint at step %d (%v), want %d", c, step, err, DefaultChunkSteps)
		}
		ps := part.New(0)
		if _, err := ps.ReadFrom(bytes.NewReader(res.PS.AppendFrame(nil))); err != nil {
			t.Fatal(err)
		}
		env.From = &Start{PS: ps, Step: res.Steps, SimTime: res.SimTime}
		env.Ctx, env.OnStep, env.Checkpointer = nil, nil, nil
	}
	res, err := Execute(c.spec, env)
	if err != nil || res.Report == nil || res.Steps != c.spec.Steps {
		t.Fatalf("%v: %v after %d steps", c, err, res.Steps)
	}
	var buf bytes.Buffer
	if _, err := res.PS.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tk := rec.TrackSnapshot()
	if c.spec.Exec.Backend == scenario.BackendSerial {
		for i := range tk.Samples {
			tk.Samples[i].Phases = nil
		}
	}
	report, err = json.Marshal(struct {
		Report  any
		Timing  *core.RunTiming
		Steps   int
		SimTime float64
	}{res.Report, res.Timing, res.Steps, res.SimTime})
	if err != nil {
		t.Fatal(err)
	}
	if track, err = json.Marshal(tk); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), report, track
}

// TestScratchReuseEqualsFresh is the reuse fence: one Scratch runs a fixed
// sequence of differing jobs, and each job's snapshot, report (verification
// report, modeled timing, steps, time) and track bytes equal those of a
// fresh Execute. It reaches the state a kept workspace carries from job to
// job: the neighbour list, tree and walk buffers, the particle sets, and the
// h iteration's cube-root table, which a workspace built for one neighbour
// target and not refilled for the next makes every later job of another
// target differ.
func TestScratchReuseEqualsFresh(t *testing.T) {
	sc := new(Scratch)
	for _, c := range reuseSequence(t) {
		snap, report, track := executeCase(t, c, sc)
		wantSnap, wantReport, wantTrack := executeCase(t, c, nil)
		if !bytes.Equal(snap, wantSnap) {
			t.Errorf("%v: snapshot %016x on the kept scratch, %016x fresh", c, part.FrameChecksum(snap), part.FrameChecksum(wantSnap))
		}
		if !bytes.Equal(report, wantReport) {
			t.Errorf("%v: report differs on the kept scratch:\n%s\nfresh:\n%s", c, report, wantReport)
		}
		if !bytes.Equal(track, wantTrack) {
			t.Errorf("%v: track differs on the kept scratch:\n%s\nfresh:\n%s", c, track, wantTrack)
		}
	}
}

// TestScratchCapacityCapped: a scratch keeps no buffer more than four
// times what the last job used of it, so a large job followed by twenty
// small ones leaves it holding what the small ones use, under a bound the
// large job's scratch exceeds. Large is, in turn, more particles (sedov,
// 8,000 then 216), a higher neighbour target at the same N (200 then 20)
// and more ranks at the same N (96 then 1). The check is on the particle
// slots, neighbour lists and snapshot bytes; the trees, sorters and gravity
// buffers go with them.
func TestScratchCapacityCapped(t *testing.T) {
	job := func(n, nn, cores, ranksPerNode int) scenario.JobSpec {
		spec, err := scenario.JobSpec{Spec: scenario.Spec{Scenario: "sedov",
			Params: scenario.Params{N: n, NNeighbors: nn}, Steps: 1,
			Cores: cores, RanksPerNode: ranksPerNode}}.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	retained := func(sc *Scratch) float64 {
		var with, without runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&with)
		*sc = Scratch{}
		runtime.GC()
		runtime.ReadMemStats(&without)
		return float64(with.HeapAlloc) - float64(without.HeapAlloc)
	}
	run := func(sc *Scratch, spec scenario.JobSpec) {
		res, err := Execute(spec, Env{Scratch: sc})
		if err != nil {
			t.Fatal(err)
		}
		sc.Encode(res.PS) // as the server does
	}
	for _, c := range []struct {
		name         string
		large, small scenario.JobSpec
		bound        float64 // bytes the scratch may hold after the small jobs
	}{
		{"particles", job(8000, 20, 4, 0), job(216, 20, 4, 0), 1 << 20},
		{"neighbours", job(2000, 200, 4, 0), job(2000, 20, 4, 0), 3 << 20},
		{"ranks", job(2000, 20, 96, 12), job(2000, 20, 4, 0), 3 << 20},
	} {
		sc := new(Scratch)
		run(sc, c.large)
		large := retained(sc)
		run(sc, c.large)
		for range 20 {
			run(sc, c.small)
		}
		small := retained(sc)
		t.Logf("%s: retained scratch %.0f KB after the large job, %.0f KB after 20 small ones", c.name, large/1024, small/1024)
		if small > c.bound {
			t.Errorf("%s: after 20 small jobs the scratch holds %.0f bytes, want at most %.0f", c.name, small, c.bound)
		}
		if large <= c.bound {
			t.Errorf("%s: the large job's scratch is %.0f bytes: within the bound, it cannot show the cap", c.name, large)
		}
	}
}
