package core

import (
	"math"

	"repro/internal/gravity"
	"repro/internal/part"
	"repro/internal/sph"
	"repro/internal/tree"
	"repro/internal/ts"
	"repro/internal/vec"
)

// stepper is one executor's share of Algorithm 1 — the whole particle set of
// a Sim, or one rank's subdomain with its ghosts — and the only place the
// workflow's physics is written. It knows nothing of clocks or messages: a
// driver passes every phase through its own phaseRunner (wall-clock timing
// for Sim, the modeled clock for a rank) and binds the ghost-refresh hook
// when it has ghosts to refresh.
type stepper struct {
	cfg  *Config
	p    *sph.Params // this executor's parameters (its own worker count)
	ps   *part.Set
	ctrl *ts.Controller

	// Products of the current step's phases, read by later phases and by the
	// driver's step report.
	tr           *tree.Tree
	nl           *sph.NeighborList
	ext          StepReport // the extrema fields, see extrema
	nbrSum       int64      // neighbour-count sum, the pair loops' work
	iadFallbacks int
	forces       sph.ForceStats
	pot          []float64 // gravitational potential per owned particle

	lastDT   float64
	haveKick bool // whether a completing half-kick is pending

	*stepScratch
}

// stepScratch is a stepper's buffers, which keep their capacity from step to
// step, never their contents: tr and nl live in ws, pot in gravRes; a rank
// keeps the h a halo retry restarts from and (rank 0) the gathered
// particles and tree of the replicated gravity solver.
type stepScratch struct {
	ws      sph.Workspace
	grav    gravity.Solver
	gravRes gravity.Result
	targets []int32
	hOrig   []float64
	gp      []vec.V3
	gm      []float64
	gws     sph.Workspace
}

// phaseRunner executes one workflow phase on behalf of a driver, which
// accounts for it in its own notion of time.
type phaseRunner func(ph PhaseID, fn func())

// neighbors runs phases A–D over the set as it stands (ghosts included).
func (st *stepper) neighbors(run phaseRunner) {
	run(PhaseTree, func() { st.tr = st.ws.BuildTree(st.ps, st.p) })
	run(PhaseNeighbors, func() { st.nl = st.ws.UpdateSmoothingLengths(st.ps, st.tr, st.p) })
	st.extrema()
}

// extrema measures the owned particles' smoothing-length and neighbour-count
// distribution and the neighbour-count sum. An executor without particles
// reports zeros.
func (st *stepper) extrema() {
	ps, ext := st.ps, &st.ext
	*ext, st.nbrSum = StepReport{}, 0
	if ps.NLocal == 0 {
		return
	}
	ext.HMin, ext.HMax = ps.H[0], ps.H[0]
	ext.MinNeighbors, ext.MaxNeighbors = int(ps.NN[0]), int(ps.NN[0])
	for i := 0; i < ps.NLocal; i++ {
		h, nn := ps.H[i], int(ps.NN[i])
		if h < ext.HMin {
			ext.HMin = h
		} else if h > ext.HMax {
			ext.HMax = h
		}
		ext.MinNeighbors, ext.MaxNeighbors = min(ext.MinNeighbors, nn), max(ext.MaxNeighbors, nn)
		st.nbrSum += int64(nn)
	}
	ext.MeanNeighbors = float64(st.nbrSum) / float64(ps.NLocal)
}

// hydro runs phases E–H. refresh is called after each phase group whose
// per-particle results the next pair loop reads from neighbours (E+F:
// density, pressure, sound speed, volume element, h; G: the IAD matrices),
// naming that group, so a driver with ghosts can bring the owners' values to
// their replicas first; a driver without ghosts has nothing to do there.
func (st *stepper) hydro(run phaseRunner, refresh func(PhaseID)) {
	run(PhaseDensity, func() { st.ws.Density(st.ps, st.nl, st.p) })
	run(PhaseEOS, func() { sph.EquationOfState(st.ps, st.p) })
	refresh(PhaseDensity)
	if st.p.Gradients == sph.IAD {
		run(PhaseIAD, func() { st.iadFallbacks = sph.ComputeIAD(st.ps, st.nl, st.p) })
		refresh(PhaseIAD)
	}
	run(PhaseForces, func() { st.forces = st.ws.MomentumEnergy(st.ps, st.nl, st.p) })
}

// gravSolver configures the stepper's multipole solver of phase I over a
// tree and the positions and masses it was built from.
func (st *stepper) gravSolver(tr *tree.Tree, pos []vec.V3, mass []float64) *gravity.Solver {
	s := &st.grav
	s.Reset(tr, pos, mass)
	s.Order = st.cfg.GravOrder
	s.Theta = st.cfg.Theta
	s.Eps = st.cfg.Eps
	s.G = st.cfg.G
	return s
}

// gravitate adds self-gravity to the owned particles' accelerations and
// keeps their potential. The owned particles are solver's particles
// offset..offset+NLocal.
func (st *stepper) gravitate(solver *gravity.Solver, offset int) *gravity.Result {
	ps, res := st.ps, &st.gravRes
	st.targets = st.targets[:0]
	for i := range ps.NLocal {
		st.targets = append(st.targets, int32(offset+i))
	}
	solver.AccelerationsInto(res, st.targets, st.p.Workers)
	for i := 0; i < ps.NLocal; i++ {
		ps.Acc[i] = ps.Acc[i].Add(res.Acc[i])
	}
	st.pot = res.Pot
	return res
}

// proposeDT is the first half of phase J: the stable step for the owned
// particles given the global maximum signal speed, capped by MaxDT.
func (st *stepper) proposeDT(vsig float64) float64 {
	dt := st.ctrl.Step(st.ps, vsig)
	if st.cfg.MaxDT > 0 && dt > st.cfg.MaxDT {
		dt = st.cfg.MaxDT
	}
	return dt
}

// kick advances velocity and internal energy by half of a step dt under the
// current accelerations. The energy equation can transiently overshoot on
// strong rarefactions, so u is floored at a tiny positive value.
func (st *stepper) kick(dt float64) {
	ps := st.ps
	half := 0.5 * dt
	for i := 0; i < ps.NLocal; i++ {
		ps.Vel[i] = ps.Vel[i].MulAdd(half, ps.Acc[i])
		ps.U[i] = max(ps.U[i]+half*ps.DU[i], 1e-12)
	}
}

// advance is the second half of phase J. The leapfrog is KDK: the closing
// half-kick of the previous step happens here, once this step's
// accelerations exist; then the opening half-kick of dt and the drift.
func (st *stepper) advance(dt float64) {
	st.synchronize()
	st.kick(dt)
	ps := st.ps
	for i := 0; i < ps.NLocal; i++ {
		ps.Pos[i] = ps.Pos[i].MulAdd(dt, ps.Vel[i])
	}
	st.wrap()
	st.lastDT, st.haveKick = dt, true
	// Nothing reads this step's tree and neighbour list any more. They stay
	// where they are: the next step rebuilds both in the same arrays, by the
	// scratch rule keep capacity, not contents.
}

// dropScratch forgets the step's scratch, leaving the stepper as a new one
// would start its next step.
func (st *stepper) dropScratch() {
	*st.stepScratch = stepScratch{}
}

// synchronize completes a pending half-kick, bringing velocities and
// energies to the positions' time level.
func (st *stepper) synchronize() {
	if st.haveKick {
		st.kick(st.lastDT)
		st.haveKick = false
	}
}

// wrap folds owned particles back into the periodic domain.
func (st *stepper) wrap() {
	pbc, lo := st.p.PBC, st.p.Box.Lo
	if pbc.None() {
		return
	}
	fold := func(x, lo, l float64, periodic bool) float64 {
		if periodic && l > 0 {
			x = lo + math.Mod(math.Mod(x-lo, l)+l, l)
		}
		return x
	}
	ps := st.ps
	for i, p := range ps.Pos[:ps.NLocal] {
		ps.Pos[i] = vec.V3{
			X: fold(p.X, lo.X, pbc.L.X, pbc.X),
			Y: fold(p.Y, lo.Y, pbc.L.Y, pbc.Y),
			Z: fold(p.Z, lo.Z, pbc.L.Z, pbc.Z),
		}
	}
}
