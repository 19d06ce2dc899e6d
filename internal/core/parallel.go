package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/conserve"
	"repro/internal/domain"
	"repro/internal/gravity"
	"repro/internal/part"
	"repro/internal/perfmodel"
	"repro/internal/simmpi"
	"repro/internal/sph"
	"repro/internal/trace"
)

// CodeCost calibrates how fast a parent code executes each workflow phase
// (operations per core-second) plus its structural overheads. These
// constants, per code, are what turn measured work counts into the modeled
// per-step seconds of Figures 1-3; see internal/codes for the calibrated
// values and EXPERIMENTS.md for the rationale.
type CodeCost struct {
	TreeRate     float64 // particles/s per core (phase A)
	SearchRate   float64 // candidate neighbor visits/s per core (phases B-D)
	PairRate     float64 // SPH pair interactions/s per core (phases E, G, H)
	EOSRate      float64 // particles/s per core (phase F)
	GravNodeRate float64 // multipole evaluations/s per core (phase I)
	GravPairRate float64 // direct pair evaluations/s per core (phase I)
	UpdateRate   float64 // particles/s per core (phase J)

	// SerialFraction is the Amdahl serial fraction per phase (e.g. SPHYNX
	// 1.3.1 built its tree serially — the paper's Figure 4 finding).
	SerialFraction map[PhaseID]float64

	// FixedPerStep is per-rank per-step runtime overhead in seconds
	// (scheduler turnarounds, runtime bookkeeping; large for ChaNGa's
	// square-patch runs per Figure 2a).
	FixedPerStep float64

	// HSweeps is the average number of smoothing-length iterations the code
	// performs (multiplies the search work).
	HSweeps float64
}

// ParallelConfig describes one strong-scaling run point.
type ParallelConfig struct {
	Core    Config
	Machine *perfmodel.Machine
	// Cores is the total core count (the paper's x-axis).
	Cores int
	// RanksPerNode: 1 models MPI+OpenMP (one rank per node, threads =
	// cores/node, SPHYNX/ChaNGa); CoresPerNode models MPI-only (SPH-flow).
	RanksPerNode int
	Decomp       domain.Method
	// DynamicLB re-decomposes with measured per-particle weights each step
	// (ChaNGa); static decomposition keeps the initial split (SPHYNX).
	DynamicLB bool
	Cost      CodeCost
	// WorkScale models a larger particle count than actually executed:
	// compute work scales linearly, halo/ghost communication by the 2/3
	// surface power. 1 = no scaling.
	WorkScale float64
	// Tracer, when non-nil, records every charge and communication section
	// as a per-rank interval labelled with its phase letter (Figure 4's
	// timeline).
	Tracer *trace.Tracer
	// Steps to simulate.
	Steps int

	// Ctx, when non-nil, cancels the run cooperatively: each step opens
	// with a collective vote (any rank that has observed Done aborts every
	// rank), so all ranks stop at the same step boundary and the partial
	// state remains consistent and mergeable. The extra collective is only
	// issued when Ctx is set, leaving uncancellable runs' modeled timings
	// untouched.
	Ctx context.Context
	// OnStep, when non-nil, is invoked by rank 0 after every completed
	// step with the zero-based step index, cumulative simulated time, and
	// the step's dt. It runs on a rank goroutine while other ranks may
	// still be working, so it must be fast and must not call back into the
	// run.
	OnStep func(step int, simTime, dt float64)
	// OnSample, when non-nil, is invoked by rank 0 after every completed
	// step with the step's reduced physics snapshot (conservation sums,
	// smoothing-length/neighbor extrema, per-rank imbalance). Sampling
	// issues extra collectives, so the hook is only wired when telemetry
	// is wanted; like OnStep it runs on a rank goroutine and must not call
	// back into the run. The sampling collectives are issued after the
	// step-end clock reduction, so stepSeconds stay unpolluted (their cost
	// lands in the rank Collective totals, preserving the clock
	// decomposition invariant).
	OnSample func(StepStats)

	// Scratch holds the ranks' buffers and the returned state (nil: a new one).
	Scratch *Scratch

	// dropScratch makes every rank forget its stepper's scratch after each
	// step: the reference the kept scratch is tested against.
	dropScratch bool
}

// StepStats is the per-step reduced physics snapshot OnSample delivers:
// the step report with its extrema already allreduced across ranks (Step is
// the chunk-relative index OnStep gets), the global conservation sums and
// the step's compute-imbalance figure.
type StepStats struct {
	StepReport
	// Cons is the globally-summed conserved state after the step.
	Cons conserve.State
	// Imbalance is max/mean per-rank compute seconds of this step (1 =
	// perfectly balanced).
	Imbalance float64
	// Per-step phase-class seconds summed over ranks.
	ComputeSeconds    float64
	HaloSeconds       float64
	CollectiveSeconds float64
}

// RankTiming is one rank's row of a run's timing record: its simulated
// clock split into compute, halo exchange and collectives.
type RankTiming = trace.RankTotals

// RunTiming is the per-phase timing breakdown of one distributed run (or of
// several chunked runs of the same shape, merged). Seconds is the modeled
// parallel wall-clock — the maximum rank clock.
type RunTiming struct {
	Cores          int          `json:"cores"`
	Ranks          int          `json:"ranks"`
	ThreadsPerRank int          `json:"threadsPerRank"`
	Steps          int          `json:"steps"`
	Seconds        float64      `json:"seconds"`
	PerRank        []RankTiming `json:"perRank"`
}

// Merge accumulates another run's timing into t (the chunked execution loop
// runs one spec as several engine invocations). The run shapes must match;
// mismatched rank counts merge by index up to the shorter breakdown.
func (t *RunTiming) Merge(o *RunTiming) {
	if o == nil {
		return
	}
	if t.Ranks == 0 {
		*t = *o
		t.PerRank = append([]RankTiming(nil), o.PerRank...)
		return
	}
	t.Steps += o.Steps
	t.Seconds += o.Seconds
	for i := range min(len(t.PerRank), len(o.PerRank)) {
		t.PerRank[i].Compute += o.PerRank[i].Compute
		t.PerRank[i].Halo += o.PerRank[i].Halo
		t.PerRank[i].Collective += o.PerRank[i].Collective
		t.PerRank[i].Seconds += o.PerRank[i].Seconds
	}
}

// ParallelResult summarizes a strong-scaling run.
type ParallelResult struct {
	Cores          int
	Ranks          int
	ThreadsPerRank int
	StepSeconds    []float64 // simulated seconds per step
	AvgStepSeconds float64
	// HaloFraction is mean ghosts/owned, a surface-to-volume diagnostic.
	HaloFraction float64
	// StepsCompleted is the number of steps actually executed; it is less
	// than the configured Steps when the run was cancelled.
	StepsCompleted int
	// SimTime is the cumulative simulated physical time advanced.
	SimTime float64
	// Cancelled reports that the run stopped early on context cancellation.
	Cancelled bool
	// Timing is the per-rank, per-phase breakdown of the simulated clocks
	// (compute / halo exchange / collectives).
	Timing *RunTiming
}

// Scratch is the memory successive runs on one goroutine reuse: each rank's
// set and stepper buffers (a Sim uses rank 0's) and the merged state a run
// returns, valid until the next run on it. A run refills every buffer before
// reading it, so it computes what it would on a new (zero) Scratch.
type Scratch struct {
	sets   []*part.Set
	steps  []*stepScratch
	merged part.Set
	ranks  int // of the last run; 0 for a Sim
}

// slots returns the sets and stepper buffers of a run on n ranks; n = 0 is
// a Sim's, which has no set and rank 0's stepper.
func (sc *Scratch) slots(n int) ([]*part.Set, []*stepScratch) {
	for len(sc.sets) < max(n, 1) {
		sc.sets, sc.steps = append(sc.sets, new(part.Set)), append(sc.steps, new(stepScratch))
	}
	sc.ranks = n
	return sc.sets[:n], sc.steps[:max(n, 1)]
}

// Footprint returns how many particle slots (ghosts included) and
// neighbour-list entries the last run on sc filled, and how many its
// buffers hold.
func (sc *Scratch) Footprint() (parts, partsHeld, nbrs, nbrsHeld int) {
	for i, s := range sc.sets {
		if i < sc.ranks {
			parts += s.Len()
		}
		partsHeld += cap(s.Pos)
	}
	if sc.ranks > 0 {
		parts += sc.merged.Len()
	}
	partsHeld += cap(sc.merged.Pos)
	for i, st := range sc.steps {
		used, held := st.ws.NeighborEntries()
		if i < max(sc.ranks, 1) {
			nbrs += used
		}
		nbrsHeld += held
	}
	return parts, partsHeld, nbrs, nbrsHeld
}

// parallelRun is what the ranks of one distributed run share: the
// configuration, every rank's particle set, and the result, which carries
// the layout and which the ranks fill in (rank 0 the step fields, every rank
// its own timing slot) for reading once world.Run has joined.
type parallelRun struct {
	cfg       ParallelConfig
	p         sph.Params // the ranks' parameters: rank goroutines already use the host cores, so one worker each
	byteScale float64    // halo payloads grow with the surface, WorkScale^(2/3)
	locals    []*part.Set
	res       *ParallelResult
	haloFracs []float64 // ghosts/owned of the last step, one slot per rank

	// The replicated gravity solver over gravN gathered particles, built by
	// rank 0 between collectives each step.
	gravSolver *gravity.Solver
	gravN      int
}

// RunParallelCapture executes the distributed Algorithm 1 over the simulated
// machine. The particle set is decomposed across ranks; hydrodynamics run
// for real on each rank's subdomain with ghost exchanges, while the per-rank
// simulated clocks charge modeled compute and network time. It returns the
// scaling results and the merged final particle state (all ranks' owned
// particles, concatenated in rank order).
func RunParallelCapture(cfg ParallelConfig, ps *part.Set) (*part.Set, *ParallelResult, error) {
	if err := cfg.Core.Defaults(); err != nil {
		return nil, nil, err
	}
	if cfg.Machine == nil {
		return nil, nil, fmt.Errorf("core: ParallelConfig.Machine is nil")
	}
	if cfg.WorkScale <= 0 {
		cfg.WorkScale = 1
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 1
	}
	ranks, threads := cfg.Machine.Layout(cfg.Cores, cfg.RanksPerNode)

	if cfg.Scratch == nil {
		cfg.Scratch = new(Scratch)
	}
	locals, _ := cfg.Scratch.slots(ranks)
	// Initial decomposition (unit weights).
	domain.SplitInto(locals, ps, domain.Decompose(cfg.Decomp, ps, cfg.Core.SPH.Box, ranks, nil))
	res := &ParallelResult{
		Cores: cfg.Cores, Ranks: ranks, ThreadsPerRank: threads,
		Timing: &RunTiming{
			Cores: cfg.Cores, Ranks: ranks, ThreadsPerRank: threads,
			PerRank: make([]RankTiming, ranks),
		},
	}
	run := &parallelRun{
		cfg: cfg, p: cfg.Core.SPH,
		byteScale: math.Pow(cfg.WorkScale, 2.0/3.0),
		locals:    locals,
		res:       res,
		haloFracs: make([]float64, ranks),
	}
	run.p.Workers = 1
	world := simmpi.NewWorld(ranks, cfg.Machine.NewNet(ranks, cfg.RanksPerNode))
	res.Timing.Seconds = world.Run(func(r *simmpi.Rank) { newRank(run, r).loop() }) // the latest rank clock
	if v, ok := world.Failure(); ok {
		// A rank panicked (typically a physics blowup feeding an index
		// computation). The world joined cleanly, so surface it as a run
		// error the caller can attribute to this one job.
		return nil, nil, fmt.Errorf("core: parallel engine aborted: %v", v)
	}

	for _, s := range res.StepSeconds {
		res.AvgStepSeconds += s
	}
	if res.StepsCompleted > 0 {
		res.AvgStepSeconds /= float64(res.StepsCompleted)
	}
	for _, f := range run.haloFracs {
		res.HaloFraction += f
	}
	res.HaloFraction /= float64(ranks)
	res.Timing.Steps = res.StepsCompleted
	merged := cfg.Scratch.merged.Reset(0)
	for _, l := range run.locals {
		merged.AppendOwned(l)
	}
	if res.Cancelled {
		// The partial state and result are still returned: a cancelled run
		// remains consistent at a step boundary, so callers can checkpoint
		// it and resume later.
		return merged, res, context.Cause(cfg.Ctx)
	}
	return merged, res, nil
}

// gravOrderCost is the relative per-node evaluation cost of each expansion
// order (~3 and ~12 from the contraction loops).
var gravOrderCost = map[gravity.Order]float64{gravity.Monopole: 1, gravity.Quadrupole: 3, gravity.Hexadecapole: 12}
