package core

import (
	"math"

	"repro/internal/conserve"
	"repro/internal/domain"
	"repro/internal/part"
	"repro/internal/sfc"
	"repro/internal/simmpi"
	"repro/internal/trace"
	"repro/internal/ts"
	"repro/internal/vec"
)

// rank is the simulated-MPI driver: one stepper over this rank's subdomain,
// its phases charged to the rank's modeled clock, its ghosts kept current by
// point-to-point exchanges and its step decisions agreed by collectives.
type rank struct {
	*parallelRun
	r  *simmpi.Rank
	st stepper

	// This step's halo: what each peer holds of ours, and where each peer's
	// particles start among our ghosts.
	plan      domain.HaloPlan
	ghostFrom []int

	// Phase-class baselines for sample's per-step deltas. Read before the
	// sampling collectives run, so a sampling collective's own cost is
	// charged to the following step's delta, never the current one.
	prevCompute, prevHalo, prevColl float64
}

func newRank(run *parallelRun, r *simmpi.Rank) *rank {
	return &rank{
		parallelRun: run, r: r, ghostFrom: make([]int, run.res.Ranks),
		st: stepper{cfg: &run.cfg.Core, p: &run.p, ps: run.locals[r.ID], ctrl: ts.NewController(run.cfg.Core.Stepping),
			stepScratch: run.cfg.Scratch.steps[r.ID]},
	}
}

// loop is Algorithm 1 as one rank executes it.
func (k *rank) loop() {
	r, cfg := k.r, &k.cfg
	simT := 0.0
	for step := 0; step < cfg.Steps; step++ {
		if k.voteAbort() {
			break
		}
		stepStart := r.Clock()

		k.haloNeighbors()
		k.st.hydro(k.charge, k.refreshGhosts)
		if cfg.Core.Gravity {
			k.gravity()
		}
		dt := k.integrate()
		if cfg.Cost.FixedPerStep > 0 {
			// Runtime overhead closes the step; the trace draws it with J.
			t0 := r.Clock()
			r.Compute(cfg.Cost.FixedPerStep)
			k.record(PhaseUpdate, trace.Compute, t0)
		}

		// Synchronize and measure the step.
		simT += dt
		stepEnd := r.AllreduceF64([]float64{r.Clock()}, simmpi.MaxF64)[0]
		if r.ID == 0 {
			k.res.StepSeconds = append(k.res.StepSeconds, stepEnd-stepStart)
			k.res.StepsCompleted = step + 1
			k.res.SimTime = simT
			if cfg.OnStep != nil {
				cfg.OnStep(step, simT, dt)
			}
		}
		if cfg.OnSample != nil {
			k.sample(step, simT, dt)
		}
		if cfg.DynamicLB && k.res.Ranks > 1 {
			k.comm(PhaseUpdate, k.rebalance)
		}
		if cfg.dropScratch {
			k.st.dropScratch()
		}
	}
	// The returned state is at one time level, like Sim.Synchronize's. The
	// kick is not charged: a real code continues into the next step instead.
	k.st.synchronize()
	k.res.Timing.PerRank[r.ID] = RankTiming{
		Rank:       r.ID,
		Compute:    r.ComputeTime,
		Halo:       r.HaloTime,
		Collective: r.CollectiveTime,
		Seconds:    r.Clock(),
	}
}

// voteAbort is the cancellation vote: all ranks must agree to stop at the
// same step boundary, so each contributes its own Done observation and the
// collective max decides for everyone. It costs a collective, so it is only
// held when the run can be cancelled.
func (k *rank) voteAbort() bool {
	if k.cfg.Ctx == nil {
		return false
	}
	abort := 0.0
	if k.cfg.Ctx.Err() != nil {
		abort = 1
	}
	stop := k.r.AllreduceF64([]float64{abort}, simmpi.MaxF64)[0] > 0
	if stop && k.r.ID == 0 {
		k.res.Cancelled = true
	}
	return stop
}

// record adds the interval from t0 to now to the trace.
func (k *rank) record(ph PhaseID, st trace.State, t0 float64) {
	if k.cfg.Tracer != nil {
		k.cfg.Tracer.Record(k.r.ID, string(ph), st, t0, k.r.Clock())
	}
}

// comm runs a communication section under phase ph's label.
func (k *rank) comm(ph PhaseID, fn func()) {
	t0 := k.r.Clock()
	fn()
	k.record(ph, trace.MPI, t0)
}

// spend charges ops operations of phase ph at rate to the modeled clock.
func (k *rank) spend(ph PhaseID, t0, ops, rate float64) {
	sec := k.cfg.Machine.PhaseSeconds(ops*k.cfg.WorkScale, rate, k.res.ThreadsPerRank, k.cfg.Cost.SerialFraction[ph])
	k.r.Compute(sec)
	k.record(ph, trace.Compute, t0)
}

// charge is the rank's phaseRunner: it runs the phase for real and charges
// the modeled clock for the work the phase's cost calibration counts.
func (k *rank) charge(ph PhaseID, fn func()) {
	t0 := k.r.Clock()
	fn()
	local, cost := k.st.ps, &k.cfg.Cost
	switch ph {
	case PhaseTree:
		k.spend(ph, t0, float64(local.Len()), cost.TreeRate)
	case PhaseNeighbors:
		k.spend(ph, t0, float64(local.NLocal)*float64(k.p.NNeighbors)*math.Max(1, cost.HSweeps), cost.SearchRate)
	case PhaseEOS:
		k.spend(ph, t0, float64(local.NLocal), cost.EOSRate)
	case PhaseUpdate:
		k.spend(ph, t0, float64(local.NLocal), cost.UpdateRate)
	default: // the pair loops E, G, H
		k.spend(ph, t0, float64(k.st.nbrSum), cost.PairRate)
	}
}

// exchange lays the ghosts out: every rank sends each peer the owned
// particles that peer holds as ghosts and appends what the peers send, one
// block per peer. Particles travel whole and by reference — what a real code
// would put on the wire at this point is domain.HaloBytesPerParticle, which
// is all the modeled clock sees.
func (k *rank) exchange() {
	local, tag := k.st.ps, int(PhaseNeighbors[0])
	for peer, idxs := range k.plan.ToPeer {
		if peer != k.r.ID {
			k.r.Send(peer, tag, int(float64(len(idxs))*domain.HaloBytesPerParticle*k.byteScale), local.Select(idxs))
		}
	}
	for peer := range k.plan.ToPeer {
		if peer == k.r.ID {
			continue
		}
		sub := k.r.Recv(peer, tag).(*part.Set)
		k.ghostFrom[peer] = local.GrowGhosts(sub.NLocal)
		for i := 0; i < sub.NLocal; i++ {
			local.CopyFrom(k.ghostFrom[peer]+i, sub, i)
		}
	}
}

// haloNeighbors exchanges ghosts and runs phases A–D. The halo margin must
// cover the *adapted* smoothing lengths, which are not known until after
// adaptation; iterate: exchange with a slack margin, adapt (restarting from
// the original h so the trajectory is identical to the shared-memory
// driver's), and re-exchange with a wider margin if any h outgrew the slack.
func (k *rank) haloNeighbors() {
	r, local := k.r, k.st.ps
	local.DropGhosts()
	k.st.hOrig = append(k.st.hOrig[:0], local.H[:local.NLocal]...)
	k.st.extrema()
	hmax := k.st.ext.HMax
	for attempt := 0; attempt < 4; attempt++ {
		margin := 0.0
		k.comm(PhaseNeighbors, func() {
			type boxMsg struct {
				B    domain.AABB
				HMax float64
			}
			if attempt > 0 {
				local.DropGhosts()
				copy(local.H[:local.NLocal], k.st.hOrig)
			}
			peerBoxes := make([]domain.AABB, k.res.Ranks)
			ghmax := 0.0
			for i, g := range r.Allgather(boxMsg{domain.BoundsOf(local), hmax}, 7*8) {
				bm := g.(boxMsg)
				peerBoxes[i] = bm.B
				if bm.HMax > ghmax {
					ghmax = bm.HMax
				}
			}
			margin = 2 * ghmax * 1.5
			k.plan = domain.PlanHalo(local, peerBoxes, r.ID, margin, k.p.PBC)
			k.exchange()
		})
		k.st.neighbors(k.charge)
		hmax = r.AllreduceF64([]float64{k.st.ext.HMax}, simmpi.MaxF64)[0]
		if 2*hmax <= margin {
			break
		}
	}
	k.haloFracs[r.ID] = float64(local.NGhost()) / math.Max(1, float64(local.NLocal))
}

// refreshGhosts is the stepper's hydro hook: owners send the ranks holding
// replicas the fields the named phase group computed, and only those — rho,
// P, c, VE and h after E+F, Tau after G — gathered at plan.ToPeer, and each
// receiver writes them into the ghost slots exchange laid out. Every send is
// a fresh slice: simmpi passes payloads by reference.
func (k *rank) refreshGhosts(ph PhaseID) {
	local, tag := k.st.ps, int(ph[0])
	bytes := 5 * 8.0 // rho, P, c, VE and h after E+F
	if ph == PhaseIAD {
		bytes = 6 * 8 // the symmetric IAD matrix after G
	}
	k.comm(ph, func() {
		for peer, idxs := range k.plan.ToPeer {
			if peer == k.r.ID {
				continue
			}
			var payload any
			if ph == PhaseIAD {
				tau := make([]vec.Sym33, len(idxs))
				for j, i := range idxs {
					tau[j] = local.Tau[i]
				}
				payload = tau
			} else {
				f := make([]float64, 0, 5*len(idxs))
				for _, i := range idxs {
					f = append(f, local.Rho[i], local.P[i], local.C[i], local.VE[i], local.H[i])
				}
				payload = f
			}
			k.r.Send(peer, tag, int(float64(len(idxs))*bytes*k.byteScale), payload)
		}
		for peer := range k.plan.ToPeer {
			if peer == k.r.ID {
				continue
			}
			g := k.ghostFrom[peer]
			switch msg := k.r.Recv(peer, tag).(type) {
			case []vec.Sym33:
				copy(local.Tau[g:], msg)
			case []float64:
				for j := 0; j+5 <= len(msg); j, g = j+5, g+1 {
					local.Rho[g], local.P[g], local.C[g], local.VE[g], local.H[g] = msg[j], msg[j+1], msg[j+2], msg[j+3], msg[j+4]
				}
			}
		}
	})
}

// gravity is phase I with a replicated coarse solver: every rank contributes
// its particles, rank 0 builds the one solver over all of them, and each
// rank evaluates its own targets against it.
func (k *rank) gravity() {
	r, local := k.r, k.st.ps
	k.comm(PhaseGravity, func() {
		// Allgather the owned particles' pos+mass (32 B each).
		bytes := int(float64(local.NLocal) * 32 * k.cfg.WorkScale)
		gathered := r.Allgather(local, bytes)
		if r.ID == 0 {
			k.st.gp, k.st.gm = k.st.gp[:0], k.st.gm[:0]
			for _, g := range gathered {
				peer := g.(*part.Set)
				k.st.gp = append(k.st.gp, peer.Pos[:peer.NLocal]...)
				k.st.gm = append(k.st.gm, peer.Mass[:peer.NLocal]...)
			}
			gt := k.st.gws.BuildTree(&part.Set{NLocal: len(k.st.gp), Pos: k.st.gp}, &k.p)
			k.gravSolver, k.gravN = k.st.gravSolver(gt, k.st.gp, k.st.gm), len(k.st.gp)
		}
		r.Barrier() // publish solver
	})
	// Ranks were appended in order, so this rank's particles start at the
	// sum of the previous ranks' counts.
	t0 := r.Clock()
	offset := 0
	for q := 0; q < r.ID; q++ {
		offset += k.locals[q].NLocal
	}
	res := k.st.gravitate(k.gravSolver, offset)
	ops := float64(res.NodeInteractions)*gravOrderCost[k.cfg.Core.GravOrder] +
		float64(res.ParticleInteractions)
	// Add this rank's share of the distributed tree+moment build.
	ops += float64(k.gravN) / float64(k.res.Ranks)
	k.spend(PhaseGravity, t0, ops, k.cfg.Cost.GravNodeRate)
}

// integrate is phase J: the ranks agree on the signal speed and the step,
// then each advances its own particles.
func (k *rank) integrate() (dt float64) {
	k.comm(PhaseUpdate, func() {
		vsig := k.r.AllreduceF64([]float64{k.st.forces.MaxVSignal}, simmpi.MaxF64)[0]
		dt = k.r.AllreduceF64([]float64{k.st.proposeDT(vsig)}, simmpi.MinF64)[0]
	})
	k.charge(PhaseUpdate, func() { k.st.advance(dt) })
	return dt
}

// sample reduces the step's physics snapshot and hands it to OnSample on
// rank 0. Its collectives are issued after the step-end clock reduction, so
// stepSeconds stay unpolluted.
func (k *rank) sample(step int, simT, dt float64) {
	r, local := k.r, k.st.ps
	computeDelta := r.ComputeTime - k.prevCompute
	haloDelta := r.HaloTime - k.prevHalo
	collDelta := r.CollectiveTime - k.prevColl
	k.prevCompute, k.prevHalo, k.prevColl = r.ComputeTime, r.HaloTime, r.CollectiveTime

	cons, ext := conserve.Measure(local, k.st.pot), k.st.ext
	hmin, nbrMin := ext.HMin, float64(ext.MinNeighbors)
	if local.NLocal == 0 { // an empty rank must not win the min reductions
		hmin, nbrMin = math.Inf(1), math.Inf(1)
	}
	maxes := r.AllreduceF64([]float64{ext.HMax, float64(ext.MaxNeighbors), computeDelta}, simmpi.MaxF64)
	mins := r.AllreduceF64([]float64{hmin, nbrMin}, simmpi.MinF64)
	sums := r.AllreduceF64([]float64{
		cons.Mass,
		cons.Momentum.X, cons.Momentum.Y, cons.Momentum.Z,
		cons.AngularMomentum.X, cons.AngularMomentum.Y, cons.AngularMomentum.Z,
		cons.Kinetic, cons.Internal, cons.Potential,
		float64(k.st.nbrSum), float64(local.NLocal),
		computeDelta, haloDelta, collDelta,
	}, simmpi.SumF64)
	if r.ID != 0 {
		return
	}
	st := StepStats{
		StepReport: StepReport{
			Step: step, Time: simT, DT: dt,
			HMin: mins[0], HMax: maxes[0],
			MinNeighbors: int(mins[1]), MaxNeighbors: int(maxes[1]),
		},
		Cons: conserve.State{
			Mass:            sums[0],
			Momentum:        vec.V3{X: sums[1], Y: sums[2], Z: sums[3]},
			AngularMomentum: vec.V3{X: sums[4], Y: sums[5], Z: sums[6]},
			Kinetic:         sums[7],
			Internal:        sums[8],
			Potential:       sums[9],
		},
		Imbalance:         1,
		ComputeSeconds:    sums[12],
		HaloSeconds:       sums[13],
		CollectiveSeconds: sums[14],
	}
	if n := sums[11]; n > 0 {
		st.MeanNeighbors = sums[10] / n
	} else { // every rank empty
		st.HMin, st.MinNeighbors = 0, 0
	}
	if mean := sums[12] / float64(k.res.Ranks); mean > 0 {
		st.Imbalance = maxes[2] / mean
	}
	k.cfg.OnSample(st)
}

// rebalance is the dynamic load balancing step: gather all owned particles
// on rank 0, re-decompose with neighbor-count weights (the per-particle cost
// proxy), split, and scatter. The collectives carry the modeled traffic
// cost. The sets are refilled in place, so every rank's stepper keeps its
// pointer.
func (k *rank) rebalance() {
	local := k.st.ps
	local.DropGhosts()
	gathered := k.r.Allgather(local, local.NLocal*domain.HaloBytesPerParticle)
	if k.r.ID == 0 {
		merged := part.New(0)
		for _, g := range gathered {
			merged.AppendOwned(g.(*part.Set))
		}
		weights := make([]float64, merged.NLocal)
		for i := range weights {
			weights[i] = 1 + float64(merged.NN[i])
		}
		lo, hi := merged.Bounds()
		asg := domain.Decompose(k.cfg.Decomp, merged, sfc.NewBox(lo, hi), k.res.Ranks, weights)
		domain.SplitInto(k.locals, merged, asg)
	}
	k.r.Barrier()
}
