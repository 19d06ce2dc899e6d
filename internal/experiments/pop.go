package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/perfmodel"
	"repro/internal/trace"
)

// PredictShape is the job shape a closed-form POP prediction covers: the
// run-shape fields of a canonical JobSpec plus the machine and cost
// calibration the server resolved for it.
type PredictShape struct {
	Machine      *perfmodel.Machine
	Cost         core.CodeCost
	Cores        int
	RanksPerNode int
	// N is the total particle count; NNeighbors the target neighbor count.
	N          int
	NNeighbors int
	Steps      int
	// Gravity and IAD mirror the scenario's physics configuration (they
	// gate phases I and G).
	Gravity bool
	IAD     bool
}

// PredictPOP computes the closed-form POP prediction for a job shape: the
// per-step phase costs a perfectly balanced decomposition would charge
// under the machine model, with no engine run at all. Where the engine
// measures actual neighbor counts, halo plans, and h-iteration retries,
// the prediction assumes the ideal — uniform particle distribution, one
// halo exchange per step, surface-scaling ghost counts — so its load
// balance is exactly 1 and the gap to the measured metrics isolates the
// imbalance the paper's §5.2 analysis attributes efficiency loss to.
func PredictPOP(in PredictShape) trace.Metrics {
	var m trace.Metrics
	if in.Machine == nil || in.N <= 0 {
		return m
	}
	if in.Steps <= 0 {
		in.Steps = 1
	}
	ranks, threads := in.Machine.Layout(in.Cores, in.RanksPerNode)
	nLoc := float64(in.N) / float64(ranks)
	nbrs := float64(in.NNeighbors)
	if nbrs <= 0 {
		nbrs = 1
	}
	phase := func(ops, rate float64, ph core.PhaseID) float64 {
		return in.Machine.PhaseSeconds(ops, rate, threads, in.Cost.SerialFraction[ph])
	}

	// Useful computation per rank per step: the engine's charge sites with
	// idealized operation counts (interactions = nLoc * target neighbors).
	interactions := nLoc * nbrs
	useful := phase(nLoc, in.Cost.TreeRate, core.PhaseTree) +
		phase(nLoc*nbrs*math.Max(1, in.Cost.HSweeps), in.Cost.SearchRate, core.PhaseNeighbors) +
		phase(interactions, in.Cost.PairRate, core.PhaseDensity) +
		phase(nLoc, in.Cost.EOSRate, core.PhaseEOS) +
		phase(interactions, in.Cost.PairRate, core.PhaseForces) +
		phase(nLoc, in.Cost.UpdateRate, core.PhaseUpdate) +
		in.Cost.FixedPerStep
	if in.IAD {
		useful += phase(interactions, in.Cost.PairRate, core.PhaseIAD)
	}
	if in.Gravity {
		// Replicated coarse solver: one multipole walk over the gathered set.
		useful += phase(float64(in.N)*math.Log2(math.Max(2, float64(in.N))),
			in.Cost.GravNodeRate, core.PhaseGravity)
	}

	net := in.Machine.NewNet(ranks, in.RanksPerNode)
	var halo, coll float64
	if ranks > 1 {
		// Surface-scaling ghost layer: a uniform cube of nLoc particles
		// exposes ~6·nLoc^(2/3) boundary particles, exchanged with up to 6
		// face neighbors.
		ghosts := 6 * math.Pow(nLoc, 2.0/3.0)
		peers := ranks - 1
		if peers > 6 {
			peers = 6
		}
		perPeer := ghosts / float64(peers)
		// Cross-node ranks dominate the cost; peer rank RanksPerNode sits one node
		// over from rank 0.
		p2p := func(bytes float64) float64 {
			return float64(peers) * net.PointToPoint(0, net.RanksPerNode, int(bytes))
		}
		// Halo data, density ghost update (rho,P,C,VE,H), and — under IAD —
		// the Tau exchange, as in the engine's comm sites.
		halo = p2p(perPeer*domain.HaloBytesPerParticle) + p2p(perPeer*5*8)
		if in.IAD {
			halo += p2p(perPeer * 6 * 8)
		}
		if in.Gravity {
			halo += net.Collective(ranks, int(nLoc*32))
		}
		// Per-step collectives: the box/hmax allgather and allreduce of the
		// h iteration, vsignal, dt, and the step-end clock exchange.
		coll = net.Collective(ranks, 7*8) + 4*net.Collective(ranks, 8)
	}

	// Perfect balance: every rank is the same rank, so the efficiencies of
	// one are the efficiencies of all and the load balance is exactly 1.
	steps := float64(in.Steps)
	m = trace.POP([]trace.RankTotals{{Compute: useful * steps}}, (useful+halo+coll)*steps)
	m.Ranks = ranks
	m.TotalUseful *= float64(ranks)
	m.TotalMPI = halo * steps * float64(ranks)
	return m
}
