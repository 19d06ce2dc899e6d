package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/conserve"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/gravity"
	"repro/internal/part"
	"repro/internal/perfmodel"
	"repro/internal/scenario"
	"repro/internal/sph"
)

// Span rows of the engine workloads.
const (
	trackEngine = 1
	trackProbe  = 2
)

// Span names of the layer calls; the per-layer metric is the name + "_ms".
const (
	spanStep      = "core.step"
	spanClone     = "probe.clone"
	spanTree      = "tree.build"
	spanNeighbors = "sph.neighbors"
	spanDensity   = "sph.density"
	spanEOS       = "sph.eos"
	spanIAD       = "sph.iad"
	spanForces    = "sph.forces"
	spanGravity   = "gravity.accel"
	spanDecompose = "domain.decompose"
	spanPlanHalo  = "domain.plan_halo"
)

// Benchmark-stated tolerances on the relative total-energy drift over the
// timed window (ISSUE 11: the registered sedov bound of 0.2 is too close to
// today's value to gate on without flapping).
var energyTolerance = map[string]float64{evrardSerial: 0.02, sedovSerial: 0.25}

const massTolerance = 1e-9

// engineInputs generates the scenario parameters of an engine workload:
// the seed moves one physical parameter by at most 1%.
func engineInputs(name string, seed int64, sz sizes) (*scenario.Scenario, scenario.Params, error) {
	scName, knob := "", ""
	switch name {
	case evrardSerial:
		scName, knob = "evrard", "u0"
	case sedovSerial:
		scName, knob = "sedov", "energy"
	case squareRanks:
		scName, knob = "square", "omega"
	}
	sc, err := scenario.Get(scName)
	if err != nil {
		return nil, scenario.Params{}, err
	}
	rp, err := sc.Resolve(scenario.Params{N: sz.engineN, NNeighbors: sz.engineNeighbors})
	if err != nil {
		return nil, scenario.Params{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	rp.Extra[knob] *= 1 + 0.01*(2*rng.Float64()-1)
	return sc, rp, nil
}

// serialPass runs a shared-memory engine workload: set-ups (generate, New,
// warm-up steps), then the timed steps. With a recorder it also replays the
// layer calls of Sim.Step on a clone before every probeEvery-th step.
func serialPass(c runCtx, name string) (*pass, error) {
	sc, params, err := engineInputs(name, c.seed, c.sz)
	if err != nil {
		return nil, err
	}
	steps := c.sz.evrardSteps
	if name == sedovSerial {
		steps = c.sz.sedovSteps
	}
	p := &pass{stepsPerOp: 1, layers: map[string]float64{}}

	var sim *core.Sim
	var warmDigest uint64
	for k := 0; k < c.setups; k++ {
		t0 := time.Now()
		ps, cfg, err := sc.Generate(params)
		if err != nil {
			return nil, err
		}
		if sim, err = core.New(cfg, ps); err != nil {
			return nil, err
		}
		for i := 0; i < c.sz.warmSteps; i++ {
			if _, err := sim.Step(); err != nil {
				return nil, fmt.Errorf("warm-up step %d: %w", i, err)
			}
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		d := sim.PS.Checksum()
		if k > 0 {
			p.check(d == warmDigest, "set-up %d reached digest %016x, set-up 0 reached %016x", k, d, warmDigest)
		}
		warmDigest = d
	}

	// Both ends of the window are measured at the same leapfrog phase (a
	// half-kick pending), as cmd/sphexa does: Synchronize before the window
	// would change the trajectory.
	before := sim.Conservation()
	var (
		pairs, gravNodes, gravPairs, fallbacks int64
		meanNeighbors, updateMS                []float64
		probes                                 []probe
	)
	mem := memNow()
	start := time.Now()
	for i := 0; i < steps; i++ {
		sid := c.rec.open(spanStep, -1, i, trackEngine)
		var pr *probe
		if c.rec != nil && i%c.sz.probeEvery == 0 {
			pr = replayStep(c.rec, sim, sid, i)
			c.rec.restart(sid)
		}
		t0 := time.Now()
		info, err := sim.Step()
		d := time.Since(t0)
		c.rec.end(sid)
		p.opMS = append(p.opMS, ms(d))
		if err == nil {
			err = sim.PS.Validate()
		}
		p.check(err == nil, "step %d: %v", i, err)

		pairs += info.NeighborInteractions
		gravNodes += info.GravNodeInteractions
		gravPairs += info.GravPairInteractions
		fallbacks += int64(info.IADFallbacks)
		meanNeighbors = append(meanNeighbors, info.MeanNeighbors)
		// core's self time: the step's wall minus what Sim.Step itself
		// reports for the layers it calls (phases A to I).
		layerS := 0.0
		for ph, s := range info.PhaseSeconds {
			if ph != core.PhaseUpdate {
				layerS += s
			}
		}
		updateMS = append(updateMS, ms(d)-layerS*1e3)
		if pr != nil {
			// The replay ran on a copy of the state this step started from,
			// so a faithful probe did exactly the step's work.
			p.check(pr.pairs == info.NeighborInteractions &&
				pr.gravNodes == info.GravNodeInteractions && pr.gravPairs == info.GravPairInteractions,
				"step %d: probe counted %d pairs, %d+%d gravity interactions; Sim.Step counted %d, %d+%d",
				i, pr.pairs, pr.gravNodes, pr.gravPairs,
				info.NeighborInteractions, info.GravNodeInteractions, info.GravPairInteractions)
			probes = append(probes, *pr)
		}
	}
	p.windowS = time.Since(start).Seconds()
	p.mem = memSince(mem)
	p.workUnits = float64(sim.PS.NLocal) * float64(steps)

	drift := conserve.Compare(before, sim.Conservation())
	p.check(drift.Mass <= massTolerance, "mass drift %g over the window exceeds %g", drift.Mass, massTolerance)
	tol := energyTolerance[name]
	p.check(drift.Energy <= tol, "energy drift %g over the window exceeds %g", drift.Energy, tol)
	sim.Synchronize()
	p.digest = fmt.Sprintf("%016x", sim.PS.Checksum())

	perStep := func(total int64) float64 { return float64(total) / float64(steps) }
	p.layers["sph.pair_interactions"] = perStep(pairs)
	p.layers["sph.iad_fallbacks"] = perStep(fallbacks)
	p.layers["sph.neighbors_mean"] = mean(meanNeighbors)
	p.exact = []string{"sph.pair_interactions", "sph.iad_fallbacks", "sph.neighbors_mean"}
	if sim.Cfg.Gravity {
		p.layers["gravity.node_interactions"] = perStep(gravNodes)
		p.layers["gravity.pair_interactions"] = perStep(gravPairs)
		p.exact = append(p.exact, "gravity.node_interactions", "gravity.pair_interactions")
	}
	p.layers["core.update_ms"] = median(updateMS)
	if len(probes) > 0 {
		var leaves, depth, listMB []float64
		for _, pr := range probes {
			leaves = append(leaves, float64(pr.leaves))
			depth = append(depth, float64(pr.maxDepth))
			listMB = append(listMB, pr.listMB)
		}
		p.layers["tree.leaves"] = mean(leaves)
		p.layers["tree.max_depth"] = mean(depth)
		p.layers["sph.neighbor_list_mb"] = mean(listMB)
	}
	return p, nil
}

// probe is what one replay of the layer calls observed beside its spans.
type probe struct {
	leaves, maxDepth int
	listMB           float64 // computed size of the CSR neighbour list
	pairs            int64
	gravNodes        int64
	gravPairs        int64
}

// replayStep clones the particle state and makes, on the clone, exactly the
// layer calls Sim.Step is about to make, with the same sph.Params, each
// under its own span whose parent is the step span sid. The real state is
// never touched. These calls are the benchmark's pinned API surface
// (README.md).
func replayStep(rec *recorder, sim *core.Sim, sid, op int) *probe {
	pr := &probe{}
	id := rec.open(spanClone, -1, op, trackProbe)
	ps := sim.PS.Clone()
	rec.end(id)
	par := sim.Cfg.SPH

	id = rec.open(spanTree, sid, op, trackProbe)
	tr := sph.BuildTree(ps, &par)
	rec.end(id)
	pr.leaves, pr.maxDepth = tr.NLeaves(), tr.MaxDepth()

	id = rec.open(spanNeighbors, sid, op, trackProbe)
	nl := sph.UpdateSmoothingLengths(ps, tr, &par)
	rec.end(id)
	pr.listMB = 4 * float64(len(nl.Offsets)+len(nl.Nbr)) / 1e6

	id = rec.open(spanDensity, sid, op, trackProbe)
	sph.Density(ps, nl, &par)
	rec.end(id)

	id = rec.open(spanEOS, sid, op, trackProbe)
	sph.EquationOfState(ps, &par)
	rec.end(id)

	if par.Gradients == sph.IAD {
		id = rec.open(spanIAD, sid, op, trackProbe)
		sph.ComputeIAD(ps, nl, &par)
		rec.end(id)
	}

	id = rec.open(spanForces, sid, op, trackProbe)
	st := sph.MomentumEnergy(ps, nl, &par)
	rec.end(id)
	pr.pairs = st.Interactions

	if sim.Cfg.Gravity {
		id = rec.open(spanGravity, sid, op, trackProbe)
		solver := gravity.NewSolver(tr, ps.Pos, ps.Mass)
		solver.Order = sim.Cfg.GravOrder
		solver.Theta = sim.Cfg.Theta
		solver.Eps = sim.Cfg.Eps
		solver.G = sim.Cfg.G
		targets := make([]int32, ps.NLocal)
		for i := range targets {
			targets[i] = int32(i)
		}
		res := solver.Accelerations(targets, par.Workers)
		rec.end(id)
		pr.gravNodes, pr.gravPairs = res.NodeInteractions, res.ParticleInteractions
	}
	return pr
}

// serviceCost is the job server's neutral phase-rate calibration
// (server.defaultCost, unexported); it only shapes the modeled clocks.
func serviceCost() core.CodeCost {
	return core.CodeCost{
		TreeRate: 1e6, SearchRate: 5e6, PairRate: 2e6, EOSRate: 1e8,
		GravNodeRate: 3e6, GravPairRate: 3e6, UpdateRate: 1e8,
		HSweeps: 3,
	}
}

// ranksCores is 2 nodes of the PizDaint model: 2 ranks at one rank per
// node, never more rank goroutines than the sandbox has cores.
const ranksCores = 24

// parallelOut is one distributed run: when it started, the host time at the
// end of every step (rank 0's OnStep), and what RunParallelCapture returned.
type parallelOut struct {
	t0     time.Time
	stamps []time.Time
	mass0  float64
	merged *part.Set
	res    *core.ParallelResult
}

// parallelRun generates the square patch and runs steps steps of the
// distributed engine on cores modeled cores.
func parallelRun(sc *scenario.Scenario, params scenario.Params, cores, steps int, onStep func(step int)) (*parallelOut, error) {
	out := &parallelOut{t0: time.Now(), stamps: make([]time.Time, 0, steps)}
	ps, cfg, err := sc.Generate(params)
	if err != nil {
		return nil, err
	}
	out.mass0 = ps.TotalMass()
	out.merged, out.res, err = core.RunParallelCapture(core.ParallelConfig{
		Core:         cfg,
		Machine:      perfmodel.PizDaint(),
		Cores:        cores,
		RanksPerNode: 1,
		Decomp:       domain.MortonSFC,
		Cost:         serviceCost(),
		Steps:        steps,
		OnStep: func(step int, _, _ float64) {
			out.stamps = append(out.stamps, time.Now())
			if onStep != nil {
				onStep(step)
			}
		},
	}, ps)
	if err != nil {
		return nil, err
	}
	if len(out.stamps) != steps || out.res.StepsCompleted != steps {
		return nil, fmt.Errorf("distributed run on %d cores completed %d of %d steps", cores, out.res.StepsCompleted, steps)
	}
	return out, nil
}

// ranksPass runs the distributed engine on 2 ranks. The run is one
// RunParallelCapture call; the warm-up steps are its first steps and the
// per-step host wall comes from OnStep timestamps.
func ranksPass(c runCtx) (*pass, error) {
	sc, params, err := engineInputs(squareRanks, c.seed, c.sz)
	if err != nil {
		return nil, err
	}
	warm, steps := c.sz.warmSteps, c.sz.squareSteps
	p := &pass{stepsPerOp: 1, layers: map[string]float64{}}

	// The earlier set-ups stop after the warm-up steps; the last one runs on
	// into the timed window.
	for k := 0; k < c.setups-1; k++ {
		out, err := parallelRun(sc, params, ranksCores, warm, nil)
		if err != nil {
			return nil, err
		}
		p.setupS = append(p.setupS, out.stamps[warm-1].Sub(out.t0).Seconds())
	}

	total := warm + steps
	mem := memNow()
	sid := c.rec.open(spanStep, -1, -warm, trackEngine)
	out, err := parallelRun(sc, params, ranksCores, total, func(step int) {
		c.rec.end(sid)
		if step == warm-1 {
			mem = memNow()
		}
		if step+1 < total {
			sid = c.rec.open(spanStep, -1, step+1-warm, trackEngine)
		}
	})
	if err != nil {
		return nil, err
	}
	p.mem = memSince(mem)
	stamps, merged, res := out.stamps, out.merged, out.res
	p.setupS = append(p.setupS, stamps[warm-1].Sub(out.t0).Seconds())
	for i := warm; i < total; i++ {
		d := stamps[i].Sub(stamps[i-1])
		p.opMS = append(p.opMS, ms(d))
		p.check(d > 0, "step %d took %v", i-warm, d)
	}
	p.windowS = stamps[total-1].Sub(stamps[warm-1]).Seconds()
	p.workUnits = float64(merged.NLocal) * float64(steps)

	p.check(merged.Validate() == nil, "final state: %v", merged.Validate())
	massDrift := (merged.TotalMass() - out.mass0) / out.mass0
	p.check(massDrift <= massTolerance && massDrift >= -massTolerance,
		"mass drift %g over the run exceeds %g", massDrift, massTolerance)
	p.digest = fmt.Sprintf("%016x", merged.Checksum())

	// The modeled clocks are deterministic: reported as counts that must
	// repeat exactly, never as a speed-up.
	var compute, halo, coll, clock, maxCompute float64
	for _, rt := range res.Timing.PerRank {
		compute += rt.Compute
		halo += rt.Halo
		coll += rt.Collective
		clock += rt.Seconds
		if rt.Compute > maxCompute {
			maxCompute = rt.Compute
		}
	}
	p.layers["simmpi.modeled_step_s"] = res.Timing.Seconds / float64(res.Timing.Steps)
	p.layers["simmpi.modeled_compute_frac"] = compute / clock
	p.layers["simmpi.modeled_halo_frac"] = halo / clock
	p.layers["simmpi.modeled_collective_frac"] = coll / clock
	p.layers["simmpi.load_balance"] = compute / float64(len(res.Timing.PerRank)) / maxCompute
	p.layers["domain.halo_fraction"] = res.HaloFraction
	p.exact = []string{"simmpi.modeled_step_s", "simmpi.modeled_compute_frac", "simmpi.modeled_halo_frac",
		"simmpi.modeled_collective_frac", "simmpi.load_balance", "domain.halo_fraction"}

	if c.rec != nil {
		if err := domainProbe(c, p, sc, params, res.Ranks); err != nil {
			return nil, err
		}
		if err := efficiencyProbe(c, p, sc, params); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// domainProbe times the decomposition and halo planning that
// RunParallelCapture's set-up and first exchange make, on the initial
// conditions, for every rank.
func domainProbe(c runCtx, p *pass, sc *scenario.Scenario, params scenario.Params, ranks int) error {
	ps, cfg, err := sc.Generate(params)
	if err != nil {
		return err
	}
	hmax := 0.0
	for _, h := range ps.H[:ps.NLocal] {
		if h > hmax {
			hmax = h
		}
	}
	margin := 2 * hmax * 1.5 // the halo margin of the first exchange attempt
	for rep := 0; rep < c.sz.layerReps; rep++ {
		id := c.rec.open(spanDecompose, -1, rep, trackProbe)
		asg := domain.Decompose(domain.MortonSFC, ps, cfg.SPH.Box, ranks, nil)
		locals := domain.Split(ps, asg, ranks)
		c.rec.end(id)

		id = c.rec.open(spanPlanHalo, -1, rep, trackProbe)
		boxes := make([]domain.AABB, ranks)
		for r, l := range locals {
			boxes[r] = domain.BoundsOf(l)
		}
		ghosts := 0
		for r, l := range locals {
			plan := domain.PlanHalo(l, boxes, r, margin, cfg.SPH.PBC)
			for _, idx := range plan.ToPeer {
				ghosts += len(idx)
			}
		}
		c.rec.end(id)
		p.layers["domain.ghosts"] = float64(ghosts)
		p.layers["domain.imbalance"] = asg.Imbalance(ranks, nil)
	}
	return nil
}

// efficiencyProbe times effSteps steps on 1 rank and on 2 ranks: the host
// wall of one rank over twice the host wall of two.
func efficiencyProbe(c runCtx, p *pass, sc *scenario.Scenario, params scenario.Params) error {
	warm, total := c.sz.warmSteps, c.sz.warmSteps+c.sz.effSteps
	wall := func(cores int) (float64, error) {
		out, err := parallelRun(sc, params, cores, total, nil)
		if err != nil {
			return 0, err
		}
		return out.stamps[total-1].Sub(out.stamps[warm-1]).Seconds(), nil
	}
	one, err := wall(ranksCores / 2)
	if err != nil {
		return err
	}
	two, err := wall(ranksCores)
	if err != nil {
		return err
	}
	p.layers["core.parallel_efficiency"] = one / (2 * two)
	return nil
}
