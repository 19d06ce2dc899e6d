// Package core is the SPH-EXA mini-app engine: the paper's Algorithm 1
// ("SPH General Computational Workflow") with every stage pluggable per
// Tables 2 and 4 — kernels, gradient formulation, volume elements,
// time-stepping mode, neighbor discovery via octree walk, and multipole
// self-gravity — integrated with a kick-drift-kick leapfrog.
//
// The phase labels A..J match the paper's Figure 4 annotation of a SPHYNX
// time-step: A tree build, B-D neighbor search and smoothing lengths, E-H
// SPH kernels (density, EOS, IAD, momentum/energy), I self-gravity, J
// time-step computation and particle update.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/conserve"
	"repro/internal/gravity"
	"repro/internal/part"
	"repro/internal/sph"
	"repro/internal/tree"
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

	// Stepping selects the time-step mode (Table 2: equal, variable
	// individual, adaptive).
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

// AllPhases lists the workflow phases in execution order.
var AllPhases = []PhaseID{
	PhaseTree, PhaseNeighbors, PhaseDensity, PhaseEOS,
	PhaseIAD, PhaseForces, PhaseGravity, PhaseUpdate,
}

// StepInfo reports one executed time-step.
type StepInfo struct {
	Step int
	Time float64 // simulation time after the step
	DT   float64

	// PhaseSeconds holds real (wall-clock) seconds per phase.
	PhaseSeconds map[PhaseID]float64
	// Work counters, the inputs to the performance model.
	NeighborInteractions int64
	GravNodeInteractions int64
	GravPairInteractions int64
	IADFallbacks         int
	MaxVSignal           float64
	MeanNeighbors        float64
	// TreeWalks is the number of tree walks the neighbor search made this
	// step; NLocal when every particle's smoothing length settled within
	// one walk.
	TreeWalks int64
	// Smoothing-length and neighbor-count extrema after this step's
	// smoothing-length iteration (telemetry inputs).
	HMin         float64
	HMax         float64
	MinNeighbors int
	MaxNeighbors int
}

// Sim is a shared-memory simulation instance.
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

	ctrl     *ts.Controller
	pot      []float64 // gravitational potential per particle (diagnostics)
	lastDT   float64
	haveKick bool // whether a completing half-kick is pending
}

// New builds a simulation over ps (which Sim takes ownership of).
func New(cfg Config, ps *part.Set) (*Sim, error) {
	if err := cfg.Defaults(); err != nil {
		return nil, err
	}
	if err := ps.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid initial conditions: %w", err)
	}
	return &Sim{
		Cfg:  cfg,
		PS:   ps,
		ctrl: ts.NewController(cfg.Stepping),
	}, nil
}

// Potential returns the per-particle gravitational potential of the last
// step (nil when gravity is off).
func (s *Sim) Potential() []float64 { return s.pot }

// Conservation measures the current conserved quantities.
func (s *Sim) Conservation() conserve.State {
	return conserve.Measure(s.PS, s.pot)
}

// Step advances the simulation by one (global) time-step, executing the
// Algorithm 1 workflow. The leapfrog is KDK: the opening half-kick uses the
// acceleration computed this step; the closing half-kick happens at the
// start of the next step once fresh accelerations exist.
func (s *Sim) Step() (StepInfo, error) {
	info := StepInfo{Step: s.StepN, PhaseSeconds: map[PhaseID]float64{}}
	ps := s.PS
	p := &s.Cfg.SPH

	timed := func(ph PhaseID, fn func()) {
		t0 := time.Now()
		fn()
		info.PhaseSeconds[ph] += time.Since(t0).Seconds()
	}

	// Phase A: tree build.
	var tr *tree.Tree
	timed(PhaseTree, func() { tr = sph.BuildTree(ps, p) })

	// Phases B-D: neighbors + smoothing lengths.
	var nl *sph.NeighborList
	timed(PhaseNeighbors, func() { nl = sph.UpdateSmoothingLengths(ps, tr, p) })
	info.TreeWalks = nl.Walks
	var totNbr int64
	for i := 0; i < ps.NLocal; i++ {
		totNbr += int64(ps.NN[i])
	}
	info.NeighborInteractions = totNbr
	if ps.NLocal > 0 {
		info.MeanNeighbors = float64(totNbr) / float64(ps.NLocal)
		info.HMin, info.HMax = ps.H[0], ps.H[0]
		info.MinNeighbors, info.MaxNeighbors = int(ps.NN[0]), int(ps.NN[0])
		for i := 1; i < ps.NLocal; i++ {
			if h := ps.H[i]; h < info.HMin {
				info.HMin = h
			} else if h > info.HMax {
				info.HMax = h
			}
			if nn := int(ps.NN[i]); nn < info.MinNeighbors {
				info.MinNeighbors = nn
			} else if nn > info.MaxNeighbors {
				info.MaxNeighbors = nn
			}
		}
	}

	// Phase E: density.
	timed(PhaseDensity, func() { sph.Density(ps, nl, p) })

	// Phase F: EOS.
	timed(PhaseEOS, func() { sph.EquationOfState(ps, p) })

	// Phase G: IAD.
	if p.Gradients == sph.IAD {
		timed(PhaseIAD, func() { info.IADFallbacks = sph.ComputeIAD(ps, nl, p) })
	}

	// Phase H: momentum and energy.
	var fstats sph.ForceStats
	timed(PhaseForces, func() { fstats = sph.MomentumEnergy(ps, nl, p) })
	info.MaxVSignal = fstats.MaxVSignal
	info.NeighborInteractions = fstats.Interactions

	// Phase I: self-gravity (step 4 of Algorithm 1).
	if s.Cfg.Gravity {
		timed(PhaseGravity, func() {
			solver := gravity.NewSolver(tr, ps.Pos, ps.Mass)
			solver.Order = s.Cfg.GravOrder
			solver.Theta = s.Cfg.Theta
			solver.Eps = s.Cfg.Eps
			solver.G = s.Cfg.G
			targets := make([]int32, ps.NLocal)
			for i := range targets {
				targets[i] = int32(i)
			}
			res := solver.Accelerations(targets, p.Workers)
			if s.pot == nil || len(s.pot) != ps.NLocal {
				s.pot = make([]float64, ps.NLocal)
			}
			for i := 0; i < ps.NLocal; i++ {
				ps.Acc[i] = ps.Acc[i].Add(res.Acc[i])
				s.pot[i] = res.Pot[i]
			}
			info.GravNodeInteractions = res.NodeInteractions
			info.GravPairInteractions = res.ParticleInteractions
		})
	}

	// Phase J: complete the previous step's half-kick, choose dt, open the
	// new half-kick, drift.
	timed(PhaseUpdate, func() {
		if s.haveKick {
			half := 0.5 * s.lastDT
			for i := 0; i < ps.NLocal; i++ {
				ps.Vel[i] = ps.Vel[i].MulAdd(half, ps.Acc[i])
				ps.U[i] = positiveU(ps.U[i] + half*ps.DU[i])
			}
		}
		dt := s.ctrl.Step(ps, fstats.MaxVSignal)
		if s.Cfg.MaxDT > 0 && dt > s.Cfg.MaxDT {
			dt = s.Cfg.MaxDT
		}
		half := 0.5 * dt
		for i := 0; i < ps.NLocal; i++ {
			ps.Vel[i] = ps.Vel[i].MulAdd(half, ps.Acc[i])
			ps.U[i] = positiveU(ps.U[i] + half*ps.DU[i])
			ps.Pos[i] = ps.Pos[i].MulAdd(dt, ps.Vel[i])
		}
		s.wrapPositions()
		s.lastDT = dt
		s.haveKick = true
		s.T += dt
		info.DT = dt
	})

	s.StepN++
	info.Time = s.T
	return info, nil
}

// positiveU floors internal energy at a tiny positive value: the energy
// equation can transiently overshoot on strong rarefactions.
func positiveU(u float64) float64 {
	if u < 1e-12 {
		return 1e-12
	}
	return u
}

// wrapPositions folds particles back into the periodic domain.
func (s *Sim) wrapPositions() {
	pbc := s.Cfg.SPH.PBC
	if pbc.None() {
		return
	}
	box := s.Cfg.SPH.Box
	ps := s.PS
	for i := 0; i < ps.NLocal; i++ {
		p := ps.Pos[i]
		if pbc.X && pbc.L.X > 0 {
			p.X = box.Lo.X + math.Mod(math.Mod(p.X-box.Lo.X, pbc.L.X)+pbc.L.X, pbc.L.X)
		}
		if pbc.Y && pbc.L.Y > 0 {
			p.Y = box.Lo.Y + math.Mod(math.Mod(p.Y-box.Lo.Y, pbc.L.Y)+pbc.L.Y, pbc.L.Y)
		}
		if pbc.Z && pbc.L.Z > 0 {
			p.Z = box.Lo.Z + math.Mod(math.Mod(p.Z-box.Lo.Z, pbc.L.Z)+pbc.L.Z, pbc.L.Z)
		}
		ps.Pos[i] = p
	}
}

// Synchronize completes any pending leapfrog half-kick so positions,
// velocities, and energies all refer to the same time level. Call before
// checkpointing: a restored simulation restarts the KDK cycle from a
// synchronized state, so the checkpoint must be one.
func (s *Sim) Synchronize() {
	if !s.haveKick {
		return
	}
	ps := s.PS
	half := 0.5 * s.lastDT
	for i := 0; i < ps.NLocal; i++ {
		ps.Vel[i] = ps.Vel[i].MulAdd(half, ps.Acc[i])
		ps.U[i] = positiveU(ps.U[i] + half*ps.DU[i])
	}
	s.haveKick = false
}

// Run advances nSteps steps or until maxTime (0 = unbounded), returning
// per-step infos. When Sim.Ctx is set and cancelled, Run stops at the next
// step boundary and returns the infos so far together with the cancellation
// cause; the particle state remains consistent, so callers can synchronize
// and checkpoint it. Sim.OnStep, when set, observes every completed step.
func (s *Sim) Run(nSteps int, maxTime float64) ([]StepInfo, error) {
	var infos []StepInfo
	for i := 0; i < nSteps; i++ {
		if s.Ctx != nil {
			select {
			case <-s.Ctx.Done():
				return infos, context.Cause(s.Ctx)
			default:
			}
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
