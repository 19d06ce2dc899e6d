// Package runloop is the job executor of the mini-app: Execute takes a
// canonical scenario.JobSpec to a verified result — scenario lookup and
// generation, the t=0 conservation reference, the execution shape, a start
// at step 0 or from a given state, one of the two engines driven in chunks
// of DefaultChunkSteps steps with an optional checkpoint file between
// chunks and a clean stop at a step boundary on cancellation, one
// flight-recorder sample per step, and verify.Evaluate on the final state.
// The job server (internal/server) and the CLI (cmd/sphexa) both run
// through it, so a report is a function of the spec, not of the binary
// that produced it.
package runloop

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/codes"
	"repro/internal/conserve"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/ft"
	"repro/internal/obs"
	"repro/internal/part"
	"repro/internal/perfmodel"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/verify"
)

// DefaultChunkSteps is the one chunk size: every run, local or served,
// serial or distributed, checkpointed or not, synchronizes its state every
// DefaultChunkSteps steps. Chunk ends change the integration, so this
// constant is part of what a result is a function of.
const DefaultChunkSteps = 10

// EngineVersion names the engine a result was computed by: a result is a
// function of its spec and of this. It is bumped, with the golden of
// TestEngineProbePinned, whenever a change moves what a spec computes — the
// final state of a run, the modeled machines or the cost calibrations.
const EngineVersion = "1"

// Env is what the caller owns around one execution.
type Env struct {
	// Ctx cancels the run cooperatively at the next step boundary; nil
	// never cancels.
	Ctx context.Context
	// Clock is the time source of Result.Phases; nil means time.Now.
	Clock func() time.Time
	// Configure, when non-nil, sees the generated workload once, before the
	// engine is built, and may edit its config (the CLI's engine flags).
	Configure func(cfg *core.Config, ps *part.Set)
	// Checkpointer writes the state to a file between chunks; nil writes
	// none, and cuts the chunks all the same.
	Checkpointer *ft.Checkpointer
	// From is the state the run continues from; nil starts at step 0.
	From *Start
	// Recorder receives one sample per completed step; nil records none. It
	// outlives the execution: it is truncated to every chunk's base step
	// before the chunk re-feeds it, so a killed and resumed run's track
	// equals an uninterrupted one's.
	Recorder *telemetry.Recorder
	// FaultInjection, when non-nil, is called after every serial-backend
	// step, before the step is measured, with the 1-based step and the
	// live particle state — a hook for corrupting it.
	FaultInjection func(step int, ps *part.Set)
	// OnStep, when non-nil, observes every completed step before its sample
	// is recorded: the report (zero-based step and time from the start of
	// the job), the conserved state after the step, and the live particle
	// state. That is nil on the distributed backend, where no rank holds the
	// whole set and the hook runs on a rank goroutine while other ranks may
	// still be working: it must be fast and must not call back into the run.
	OnStep func(rep core.StepReport, cons conserve.State, ps *part.Set)
	// Scratch holds the execution's particle sets and engine buffers, and
	// Result.PS may live in it until the next execution on it. It is owned
	// by one goroutine, which runs one execution on it at a time and is done
	// with a result before it starts the next (a server worker, all its
	// jobs); nil gives the execution a new one.
	Scratch *Scratch
}

// Start is a synchronized state a run continues from: the particles after
// Step steps, at simulation time SimTime. The run's conservation reference
// is still the generated t=0 state.
type Start struct {
	PS      *part.Set
	Step    int
	SimTime float64
}

// Scratch is what successive executions on one goroutine reuse: the
// generated initial conditions, the engine's buffers and the buffer a result
// is encoded into. An execution refills whatever it reads, so its result is
// the one a new Scratch gives. An execution that finds the Scratch holding
// more than four times the particle slots (ghosts included), neighbour-list
// entries or snapshot bytes the one before it used starts on a new Scratch.
type Scratch struct {
	ic   part.Set
	core core.Scratch
	snap []byte
}

// oversized reports whether sc holds more than four times what its last
// execution used.
func (sc *Scratch) oversized() bool {
	parts, partsHeld, nbrs, nbrsHeld := sc.core.Footprint()
	parts, partsHeld = parts+sc.ic.Len(), partsHeld+cap(sc.ic.Pos)
	return partsHeld > 4*parts || nbrsHeld > 4*nbrs || cap(sc.snap) > 4*len(sc.snap)
}

// Encode returns ps's snapshot frame (part.Set.WriteTo's bytes), encoded
// into sc's buffer: valid, like a Result.PS in sc, until the next execution
// on sc.
func (sc *Scratch) Encode(ps *part.Set) []byte {
	sc.snap = ps.AppendFrame(slices.Grow(sc.snap[:0], ps.EncodedSize()))
	return sc.snap
}

// Result is the outcome of one execution.
type Result struct {
	// PS is the final particle state, synchronized — at the step the run
	// stopped at when Cancelled, which leaves it to the caller to
	// checkpoint, requeue, or surface the interruption. It may live in
	// Env.Scratch: it is valid until the next execution on that Scratch.
	PS        *part.Set
	Cancelled bool
	// Steps counts completed steps including Env.From's; SimTime is the
	// matching simulation time.
	Steps   int
	SimTime float64
	// Timing accumulates the chunks' modeled per-phase timing; nil on the
	// serial backend. Env.From's steps contribute nothing (their timing was
	// spent by the run that reached that state).
	Timing *core.RunTiming
	// Report scores the final state; nil unless the run completed.
	Report *verify.Report
	// Phases is the wall-clock lifecycle of this execution: run, checkpoint,
	// verify (obs.Phase*). Checkpoint is left out when it took no time (a
	// run with no checkpointer never enters it).
	Phases obs.SpanSet
}

// Execute runs the canonical spec to completion, cancellation, or an error.
func Execute(spec scenario.JobSpec, env Env) (Result, error) {
	sc, err := scenario.Get(spec.Scenario)
	if err != nil {
		return Result{}, err
	}
	if env.Scratch == nil {
		env.Scratch = new(Scratch)
	} else if env.Scratch.oversized() {
		*env.Scratch = Scratch{}
	}
	ps, cfg, err := sc.GenerateInto(spec.Params, &env.Scratch.ic)
	if err != nil {
		return Result{}, err
	}
	if env.Configure != nil {
		env.Configure(&cfg, ps)
	}
	// The conservation reference of the drift series and of the report is
	// the generated t=0 state, also for a run that continues from Env.From.
	x := &execution{env: env, spec: spec, cfg: cfg, initial: conserve.Measure(ps, nil)}
	var run chunk
	if spec.Exec.Backend == scenario.BackendSerial {
		run = x.serial()
	} else if run, err = x.distributed(); err != nil {
		return Result{}, err
	}
	res, err := loop(env, spec.Steps, ps, run)
	if err != nil || res.Cancelled {
		return res, err
	}
	vspan := obs.StartSpan(obs.PhaseVerify, env.Clock)
	res.Report = x.evaluate(sc, res)
	vspan.EndTo(&res.Phases)
	return res, nil
}

// Shape resolves the execution section of a distributed job, for the run
// and for its modeled POP prediction alike: the named machine model (Piz
// Daint when empty) and parent-code cost calibration (neutralCost when
// empty), on at least one core. It is the only place an empty exec section
// is resolved, so a stored result is a function of its spec alone. Names
// are validated when a spec is canonicalized.
func Shape(spec scenario.JobSpec, cfg core.Config) (*perfmodel.Machine, core.CodeCost, int, error) {
	machine, cost := perfmodel.PizDaint(), neutralCost()
	if name := spec.Exec.Machine; name != "" {
		m, err := perfmodel.ByName(name)
		if err != nil {
			return nil, cost, 0, err
		}
		machine = m
	}
	if name := spec.Exec.Cost; name != "" {
		code, err := codes.ByName(name)
		if err != nil {
			return nil, cost, 0, err
		}
		// The two calibrated paper tests differ by the gravity phases, so
		// the choice keys on the workload's physics, not on its name: any
		// self-gravitating scenario gets the Evrard constants.
		test := codes.SquarePatch
		if cfg.Gravity {
			test = codes.Evrard
		}
		cost = code.Cost(test)
	}
	return machine, cost, max(spec.Cores, 1), nil
}

// neutralCost is the phase-rate calibration of a spec that names no parent
// code; it only shapes the modeled clocks, not the physics.
func neutralCost() core.CodeCost {
	return core.CodeCost{
		TreeRate: 1e6, SearchRate: 5e6, PairRate: 2e6, EOSRate: 1e8,
		GravNodeRate: 3e6, GravPairRate: 3e6, UpdateRate: 1e8,
		HSweeps: 3,
	}
}

// execution is the state both engine drivers share.
type execution struct {
	env     Env
	spec    scenario.JobSpec
	cfg     core.Config
	initial conserve.State
}

// record publishes one completed step of either backend. phases and
// imbalance are the backend's own: wall-clock workflow letters and 0 (not
// sampled) when serial, modeled clock classes and max/mean rank compute
// when distributed.
func (x *execution) record(rep core.StepReport, cons conserve.State, ps *part.Set,
	imbalance float64, phases map[string]float64) {

	if x.env.OnStep != nil {
		x.env.OnStep(rep, cons, ps)
	}
	if x.env.Recorder == nil {
		return
	}
	d := conserve.Compare(x.initial, cons)
	x.env.Recorder.Add(telemetry.Sample{
		Step: rep.Step + 1, Time: rep.Time, DT: rep.DT,
		MassDrift: d.Mass, MomentumDrift: d.Momentum, AngMomDrift: d.AngMom, EnergyDrift: d.Energy,
		HMin: rep.HMin, HMax: rep.HMax,
		NbrMin: rep.MinNeighbors, NbrMax: rep.MaxNeighbors, NbrMean: rep.MeanNeighbors,
		Imbalance: imbalance, Phases: phases,
	})
}

// serial drives the shared-memory engine — no simulated MPI, no machine
// model — holding one Sim across chunks so the integration state (step
// counter, adaptive controller) carries over.
func (x *execution) serial() chunk {
	var sim *core.Sim
	return func(ctx context.Context, ps *part.Set, b base, steps int) (Result, error) {
		if sim == nil {
			var err error
			if sim, err = core.NewIn(x.cfg, ps, &x.env.Scratch.core); err != nil {
				return Result{}, err
			}
			sim.StepN, sim.T = b.Step, b.Time
			sim.OnStep = func(info core.StepInfo) {
				if fi := x.env.FaultInjection; fi != nil {
					fi(info.Step+1, sim.PS)
				}
				phases := make(map[string]float64, len(info.PhaseSeconds))
				for ph, v := range info.PhaseSeconds {
					phases[string(ph)] = v
				}
				x.record(info.StepReport, sim.Conservation(), sim.PS, 0, phases)
			}
		}
		sim.Ctx = ctx
		startStep, startT := sim.StepN, sim.T
		_, runErr := sim.Run(steps, 0)
		cancelled := runErr != nil && ctx.Err() != nil
		if runErr != nil && !cancelled {
			return Result{}, runErr
		}
		sim.Synchronize()
		return Result{
			PS:        sim.PS,
			Steps:     sim.StepN - startStep,
			SimTime:   sim.T - startT,
			Cancelled: cancelled,
		}, nil
	}
}

// distributed drives the simulated-MPI engine under the job's run shape:
// one chunk is one RunParallelCapture of up to DefaultChunkSteps steps, which
// returns the merged, synchronized state.
func (x *execution) distributed() (chunk, error) {
	machine, cost, cores, err := Shape(x.spec, x.cfg)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, ps *part.Set, b base, steps int) (Result, error) {
		merged, res, err := core.RunParallelCapture(core.ParallelConfig{
			Core:         x.cfg,
			Machine:      machine,
			Cores:        cores,
			RanksPerNode: x.spec.RanksPerNode,
			Decomp:       domain.MortonSFC,
			Cost:         cost,
			Steps:        steps,
			Ctx:          ctx,
			Scratch:      &x.env.Scratch.core,
			OnSample: func(st core.StepStats) {
				rep := st.StepReport // counts from the chunk's start
				rep.Step += b.Step
				rep.Time += b.Time
				x.record(rep, st.Cons, nil, st.Imbalance, map[string]float64{
					trace.PhaseCompute:    st.ComputeSeconds,
					trace.PhaseHalo:       st.HaloSeconds,
					trace.PhaseCollective: st.CollectiveSeconds,
				})
			},
		}, ps)
		if err != nil && (res == nil || !res.Cancelled) {
			return Result{}, err
		}
		return Result{
			PS:        merged,
			Steps:     res.StepsCompleted,
			SimTime:   res.SimTime,
			Cancelled: res.Cancelled,
			Timing:    res.Timing,
		}, nil
	}, nil
}

// evaluate scores a completed run against the scenario's analytic reference
// and acceptance thresholds. A report is always produced — scenarios without
// a reference are scored on conservation alone.
func (x *execution) evaluate(sc *scenario.Scenario, res Result) *verify.Report {
	sol, refErr := sc.BuildReference(x.spec.Params)
	thr := sc.Accept
	if v := x.spec.Verify; v != nil {
		// The spec's verification section overrides the registered trim
		// quantiles; it is covered by the canonical hash, so a persisted
		// report always matches its spec.
		if v.TrimQuantile > 0 {
			thr.TrimQuantile = v.TrimQuantile
		}
		if v.TrimDensity > 0 {
			thr.TrimQuantileDensity = v.TrimDensity
		}
		if v.TrimVelocity > 0 {
			thr.TrimQuantileVelocity = v.TrimVelocity
		}
		if v.TrimPressure > 0 {
			thr.TrimQuantilePressure = v.TrimPressure
		}
	}
	return verify.Evaluate(verify.Input{
		Scenario: x.spec.Scenario,
		PS:       res.PS,
		SimTime:  res.SimTime,
		Solution: sol,
		// A failed reference construction fails the report's checks, not
		// degrades the acceptance bar to conservation-only.
		ReferenceErr: refErr,
		EOS:          x.cfg.SPH.EOS,
		Thresholds:   thr,
		Initial:      x.initial,
		HaveInitial:  true,
	})
}

// base is the global position a chunk starts from: completed steps and
// accumulated simulation time.
type base struct {
	Step int
	Time float64
}

// chunk advances the simulation by up to `steps` steps from `ps` at `b` and
// reports that stretch alone: the state, the steps and simulation time it
// added, its modeled timing. It observes ctx at step boundaries and returns
// Cancelled (not an error) when interrupted, and always a synchronized
// state: that is what gets checkpointed, and what gets verified.
type chunk func(ctx context.Context, ps *part.Set, b base, steps int) (Result, error)

// loop is the chunked run: from ps at step 0, or from env.From, chunks of
// DefaultChunkSteps with a checkpoint between consecutive chunks (when
// there is a Checkpointer), until total steps, cancellation, or an error.
// An interim checkpoint failure is one: a run that cannot honor its
// durability contract must not compute past it.
func loop(env Env, total int, ps *part.Set, run chunk) (Result, error) {
	ctx := env.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	res := Result{PS: ps}
	if from := env.From; from != nil {
		if from.Step > total {
			return res, fmt.Errorf("runloop: start at step %d is past the run's %d steps", from.Step, total)
		}
		res.PS, res.Steps, res.SimTime = from.PS, from.Step, from.SimTime
	}
	// The run phase exists even if no chunk runs: Measured nests under it.
	res.Phases.AddSeconds(obs.PhaseRun, 0)
	for res.Steps < total {
		select {
		case <-ctx.Done():
			res.Cancelled = true
			return res, nil
		default:
		}
		n := min(total-res.Steps, DefaultChunkSteps)
		if env.Recorder != nil {
			env.Recorder.TruncateAfter(res.Steps)
		}
		sp := obs.StartSpan(obs.PhaseRun, env.Clock)
		cr, err := run(ctx, res.PS, base{Step: res.Steps, Time: res.SimTime}, n)
		sp.EndTo(&res.Phases)
		if err != nil && !cr.Cancelled {
			return res, err
		}
		if cr.PS != nil {
			res.PS = cr.PS
		}
		res.Steps += cr.Steps
		res.SimTime += cr.SimTime
		if cr.Timing != nil {
			if res.Timing == nil {
				res.Timing = &core.RunTiming{}
			}
			res.Timing.Merge(cr.Timing)
		}
		if cr.Cancelled {
			res.Cancelled = true
			return res, nil
		}
		if ck := env.Checkpointer; ck != nil && res.Steps < total {
			sp := obs.StartSpan(obs.PhaseCheckpoint, env.Clock)
			err := ck.Write(res.Steps, res.SimTime, res.PS)
			if d := sp.End(); d > 0 {
				res.Phases.Add(obs.PhaseCheckpoint, d)
			}
			if err != nil {
				return res, fmt.Errorf("runloop: checkpoint at step %d: %w", res.Steps, err)
			}
		}
	}
	return res, nil
}

// Measured reassembles a run's measured trace from what it leaves behind —
// the telemetry track's per-step phase seconds, the timing record's
// per-rank totals (nil for a serial run) and the wall-clock lifecycle — for
// a completed job's persisted artifacts and a local run's result alike.
func Measured(track telemetry.Track, timing *core.RunTiming, lifecycle []obs.Phase) trace.Measured {
	in := trace.MeasuredInput{Lifecycle: lifecycle}
	// The engine timeline starts where the run phase does: lifecycle
	// phases recorded before it (queue-wait, restore) shift it right.
	for _, ph := range lifecycle {
		if ph.Name == obs.PhaseRun {
			break
		}
		in.Offset += ph.Seconds
	}
	if timing != nil {
		in.Ranks = timing.PerRank
	}
	for _, sm := range track.Samples {
		switch {
		case len(sm.Phases) == 0:
		case len(in.Ranks) > 0:
			in.Steps = append(in.Steps, trace.StepClassSeconds{
				Step:       sm.Step,
				Compute:    sm.Phases[trace.PhaseCompute],
				Halo:       sm.Phases[trace.PhaseHalo],
				Collective: sm.Phases[trace.PhaseCollective],
			})
		default:
			names := make([]string, 0, len(sm.Phases))
			for ph := range sm.Phases {
				names = append(names, ph)
			}
			// The engine's phase letters (A..J) sort into execution order.
			sort.Strings(names)
			st := trace.SerialStep{Step: sm.Step}
			for _, ph := range names {
				st.Phases = append(st.Phases, trace.PhaseSpan{Phase: ph, Seconds: sm.Phases[ph]})
			}
			in.Serial = append(in.Serial, st)
		}
	}
	return trace.BuildMeasured(in)
}
