// Package core is the SPH-EXA mini-app engine: the paper's Algorithm 1
// ("SPH General Computational Workflow") with every stage pluggable per
// Tables 2 and 4 — kernels, gradient formulation, volume elements,
// time-stepping mode, neighbor discovery via octree walk, and multipole
// self-gravity — integrated with a kick-drift-kick leapfrog.
//
// One pipeline, two drivers. The physics is written once, in the unexported
// stepper: one executor's particles taken through the phases A..J of the
// paper's Figure 4 annotation of a SPHYNX time-step (the PhaseID constants).
// Sim drives one stepper over the whole set and times each phase by the wall
// clock; RunParallelCapture drives one per simulated-MPI rank, charging each
// phase to a modeled clock, refreshing ghosts between phases and agreeing
// the step's decisions by collectives. The input picks the driver (a job
// spec's exec.backend); on one rank the two are the same computation bit for
// bit, which parity_test.go pins.
//
// Time levels. A step leaves velocities and energies half a step behind the
// positions, the closing half-kick pending until the next step's
// accelerations exist: Sim.Step returns that staggered state (per-step
// reports and samples are taken on it), Sim.Synchronize closes it, and
// RunParallelCapture returns a synchronized state.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/conserve"
	"repro/internal/gravity"
	"repro/internal/part"
	"repro/internal/sph"
	"repro/internal/ts"
)

// Config selects the physics and numerics of a simulation.
type Config struct {
	SPH sph.Params

	// Gravity enables tree self-gravity (step 4 of Algorithm 1; the Evrard
	// collapse requires it, the square patch does not).
	Gravity   bool
	GravOrder gravity.Order
	Theta     float64 // Barnes-Hut opening angle
	Eps       float64 // Plummer softening
	G         float64 // gravitational constant

	// Stepping selects the time-step mode: global (Table 2's equal) or
	// adaptive. Every particle advances by the same step in both.
	Stepping ts.Mode
	// MaxDT caps the time step (0 = uncapped).
	MaxDT float64
}

// Defaults validates and fills the configuration.
func (c *Config) Defaults() error {
	if err := c.SPH.Defaults(); err != nil {
		return err
	}
	if c.Gravity {
		if c.Theta == 0 {
			c.Theta = 0.6
		}
		if c.G == 0 {
			c.G = 1
		}
	}
	return nil
}

// PhaseID identifies a workflow phase using the paper's Figure 4 letters.
type PhaseID string

// Workflow phases (paper Figure 4 / Algorithm 1).
const (
	PhaseTree      PhaseID = "A" // build octree
	PhaseNeighbors PhaseID = "B" // find neighbors + smoothing lengths (B-D)
	PhaseDensity   PhaseID = "E" // density summation
	PhaseEOS       PhaseID = "F" // equation of state
	PhaseIAD       PhaseID = "G" // IAD moment matrices
	PhaseForces    PhaseID = "H" // momentum + energy
	PhaseGravity   PhaseID = "I" // self-gravity
	PhaseUpdate    PhaseID = "J" // new time-step + position/velocity update
)

var phaseLabels = map[PhaseID]string{
	PhaseTree: "tree", PhaseNeighbors: "neighbors+h", PhaseDensity: "density",
	PhaseEOS: "eos", PhaseIAD: "IAD", PhaseForces: "momentum/energy",
	PhaseGravity: "gravity", PhaseUpdate: "update",
}

// Label names the phase in words, for the legend of a timeline that shows
// the letters.
func (p PhaseID) Label() string { return phaseLabels[p] }

// StepReport is the part of a step's report the two drivers fill the same
// way. Step and Time count from the driver's own origin: a Sim's StepN and T
// (which a caller may seed to resume), zero for a distributed run.
type StepReport struct {
	Step int     // zero-based index of the step
	Time float64 // simulation time after the step
	DT   float64

	// Smoothing-length and neighbor-count distribution after this step's
	// smoothing-length iteration (telemetry inputs).
	HMin          float64
	HMax          float64
	MinNeighbors  int
	MaxNeighbors  int
	MeanNeighbors float64
}

// StepInfo reports one time-step of the shared-memory driver.
type StepInfo struct {
	StepReport

	// PhaseSeconds holds real (wall-clock) seconds per phase.
	PhaseSeconds map[PhaseID]float64
	// Work counters, the inputs to the performance model.
	NeighborInteractions int64
	GravNodeInteractions int64
	GravPairInteractions int64
	IADFallbacks         int
	MaxVSignal           float64
	// TreeWalks is the number of tree walks the neighbor search made this
	// step; NLocal when every particle's smoothing length settled within
	// one walk.
	TreeWalks int64
}

// Sim is the shared-memory driver: one stepper over the whole particle set,
// its phases timed by the wall clock.
type Sim struct {
	Cfg Config
	PS  *part.Set

	T     float64
	StepN int

	// Ctx, when non-nil, cancels Run cooperatively: cancellation is
	// observed at step boundaries, so the particle state is always left
	// consistent (and checkpointable) — the shared-memory mirror of
	// ParallelConfig.Ctx. Run returns the cancellation cause.
	Ctx context.Context
	// OnStep, when non-nil, is invoked by Run after every completed step
	// with that step's info — the shared-memory mirror of
	// ParallelConfig.OnStep. Unlike the distributed variant it runs
	// synchronously on Run's goroutine between steps, so it may inspect
	// the Sim (diagnostics, checkpointing, Synchronize) but must not
	// advance it (no Step or Run calls).
	OnStep func(info StepInfo)

	st stepper
}

// New builds a simulation over ps (which Sim takes ownership of).
func New(cfg Config, ps *part.Set) (*Sim, error) {
	return NewIn(cfg, ps, new(Scratch))
}

// NewIn is New with the stepper's buffers drawn from sc, which the Sim uses
// until the next run on sc.
func NewIn(cfg Config, ps *part.Set, sc *Scratch) (*Sim, error) {
	if err := cfg.Defaults(); err != nil {
		return nil, err
	}
	if err := ps.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid initial conditions: %w", err)
	}
	_, steps := sc.slots(0)
	s := &Sim{Cfg: cfg, PS: ps}
	s.st = stepper{cfg: &s.Cfg, p: &s.Cfg.SPH, ps: ps, ctrl: ts.NewController(cfg.Stepping), stepScratch: steps[0]}
	return s, nil
}

// Conservation measures the current conserved quantities.
func (s *Sim) Conservation() conserve.State {
	return conserve.Measure(s.PS, s.st.pot)
}

// Step advances the simulation by one (global) time-step of the Algorithm 1
// workflow. The state it leaves is staggered: velocities and energies trail
// positions by the closing half-kick, which the next Step (or Synchronize)
// applies.
func (s *Sim) Step() (StepInfo, error) {
	st := &s.st
	info := StepInfo{PhaseSeconds: map[PhaseID]float64{}}
	timed := func(ph PhaseID, fn func()) {
		t0 := time.Now()
		fn()
		info.PhaseSeconds[ph] += time.Since(t0).Seconds()
	}

	st.neighbors(timed)
	info.StepReport = st.ext
	info.TreeWalks = st.nl.Walks

	st.hydro(timed, func(PhaseID) {}) // no ghosts to refresh
	info.IADFallbacks = st.iadFallbacks
	info.MaxVSignal = st.forces.MaxVSignal
	info.NeighborInteractions = st.forces.Interactions

	if s.Cfg.Gravity {
		timed(PhaseGravity, func() {
			res := st.gravitate(st.gravSolver(st.tr, s.PS.Pos, s.PS.Mass), 0)
			info.GravNodeInteractions = res.NodeInteractions
			info.GravPairInteractions = res.ParticleInteractions
		})
	}

	timed(PhaseUpdate, func() {
		info.DT = st.proposeDT(st.forces.MaxVSignal)
		st.advance(info.DT)
	})
	s.T += info.DT
	info.Step, info.Time = s.StepN, s.T
	s.StepN++
	return info, nil
}

// Synchronize completes any pending leapfrog half-kick so positions,
// velocities, and energies all refer to the same time level. Call before
// checkpointing: a restored simulation restarts the KDK cycle from a
// synchronized state, so the checkpoint must be one.
func (s *Sim) Synchronize() { s.st.synchronize() }

// Run advances nSteps steps or until maxTime (0 = unbounded), returning
// per-step infos. When Sim.Ctx is set and cancelled, Run stops at the next
// step boundary and returns the infos so far together with the cancellation
// cause; the particle state remains consistent, so callers can synchronize
// and checkpoint it. Sim.OnStep, when set, observes every completed step.
func (s *Sim) Run(nSteps int, maxTime float64) ([]StepInfo, error) {
	var infos []StepInfo
	for i := 0; i < nSteps; i++ {
		if s.Ctx != nil && s.Ctx.Err() != nil {
			return infos, context.Cause(s.Ctx)
		}
		if maxTime > 0 && s.T >= maxTime {
			break
		}
		info, err := s.Step()
		if err != nil {
			return infos, err
		}
		if s.OnStep != nil {
			s.OnStep(info)
		}
		infos = append(infos, info)
	}
	return infos, nil
}
