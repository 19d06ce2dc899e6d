// Package domain implements the two domain-decomposition strategies the
// mini-app adopts from its parent codes (paper Tables 3-4): orthogonal
// recursive bisection (SPH-flow) and space-filling-curve partitioning
// (ChaNGa), plus halo (ghost-particle) planning for distributed SPH sweeps.
package domain

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/part"
	"repro/internal/sfc"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Method selects the decomposition strategy.
type Method int

const (
	// ORB recursively bisects the longest axis at the weighted median.
	ORB Method = iota
	// MortonSFC partitions the Morton space-filling curve into
	// equal-weight contiguous segments.
	MortonSFC
	// HilbertSFC partitions the Hilbert curve likewise (better locality,
	// costlier keys).
	HilbertSFC
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case ORB:
		return "orb"
	case MortonSFC:
		return "sfc-morton"
	case HilbertSFC:
		return "sfc-hilbert"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// ByName returns the method for a CLI name.
func ByName(name string) (Method, error) {
	switch name {
	case "orb":
		return ORB, nil
	case "sfc-morton", "morton":
		return MortonSFC, nil
	case "sfc-hilbert", "hilbert":
		return HilbertSFC, nil
	}
	return 0, fmt.Errorf("domain: unknown decomposition %q (have orb, sfc-morton, sfc-hilbert)", name)
}

// Assignment maps each particle index to its owning rank.
type Assignment []int

// Decompose assigns the owned particles of ps to nranks ranks. weights may
// be nil (unit weight per particle) or per-particle costs from the previous
// step (dynamic load balancing re-runs Decompose with measured weights).
func Decompose(m Method, ps *part.Set, box sfc.Box, nranks int, weights []float64) Assignment {
	if nranks <= 0 {
		panic("domain: Decompose with nranks <= 0")
	}
	n := ps.NLocal
	asg := make(Assignment, n)
	if nranks == 1 || n == 0 {
		return asg
	}
	switch m {
	case ORB:
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		orbSplit(ps.Pos, weights, idx, 0, nranks, asg)
	default:
		curve := sfc.Morton
		if m == HilbertSFC {
			curve = sfc.Hilbert
		}
		keys := sfc.Keys(curve, box, ps.Pos[:n])
		perm := sfc.ParallelSortByKey(keys, 0)
		var w []float64
		if weights != nil {
			w = make([]float64, n)
			for i, p := range perm {
				w[i] = weights[p]
			}
		}
		bounds := sfc.Partition(n, nranks, w)
		for r := 0; r < nranks; r++ {
			for k := bounds[r]; k < bounds[r+1]; k++ {
				asg[perm[k]] = r
			}
		}
	}
	return asg
}

// orbSplit recursively assigns ranks [rank0, rank0+nranks) to the particles
// in idx by bisecting the longest axis at the weighted split point. Uneven
// rank counts split the weight proportionally (supports non-power-of-two).
func orbSplit(pos []vec.V3, weights []float64, idx []int, rank0, nranks int, asg Assignment) {
	if nranks == 1 {
		for _, i := range idx {
			asg[i] = rank0
		}
		return
	}
	// Longest axis of the bounding box of this group.
	lo := pos[idx[0]]
	hi := lo
	for _, i := range idx[1:] {
		lo = lo.Min(pos[i])
		hi = hi.Max(pos[i])
	}
	d := hi.Sub(lo)
	axis := 0
	if d.Y > d.Comp(axis) {
		axis = 1
	}
	if d.Z > d.Comp(axis) {
		axis = 2
	}
	sort.Slice(idx, func(a, b int) bool {
		return pos[idx[a]].Comp(axis) < pos[idx[b]].Comp(axis)
	})
	nLeft := nranks / 2
	frac := float64(nLeft) / float64(nranks)
	split := 0
	if weights == nil {
		split = int(math.Round(float64(len(idx)) * frac))
	} else {
		var total float64
		for _, i := range idx {
			total += weights[i]
		}
		var acc float64
		for k, i := range idx {
			acc += weights[i]
			if acc >= total*frac {
				split = k + 1
				break
			}
		}
	}
	if split < 1 {
		split = 1
	}
	if split > len(idx)-1 {
		split = len(idx) - 1
	}
	orbSplit(pos, weights, idx[:split], rank0, nLeft, asg)
	orbSplit(pos, weights, idx[split:], rank0+nLeft, nranks-nLeft, asg)
}

// Split materializes per-rank particle sets from an assignment.
func Split(ps *part.Set, asg Assignment, nranks int) []*part.Set {
	out := make([]*part.Set, nranks)
	SplitInto(out, ps, asg)
	return out
}

// SplitInto refills out[r] (a nil one: a new set) with the owned particles
// of ps assigned to rank r, in index order.
func SplitInto(out []*part.Set, ps *part.Set, asg Assignment) {
	next := make([]int, len(out))
	for _, r := range asg[:ps.NLocal] {
		next[r]++
	}
	for r := range out {
		out[r], next[r] = out[r].Reset(next[r]), 0
	}
	for i, r := range asg[:ps.NLocal] {
		out[r].CopyFrom(next[r], ps, i)
		next[r]++
	}
}

// Imbalance returns max/mean of the per-rank total weights (1 = perfect).
func (a Assignment) Imbalance(nranks int, weights []float64) float64 {
	w := make([]float64, nranks)
	for i, r := range a {
		if weights == nil {
			w[r]++
		} else {
			w[r] += weights[i]
		}
	}
	var sum, max float64
	for _, v := range w {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 1
	}
	mean := sum / float64(nranks)
	if mean == 0 {
		return 1
	}
	return max / mean
}

// AABB is an axis-aligned box with a halo margin.
type AABB struct {
	Lo, Hi vec.V3
}

// Expand grows the box by m on every side.
func (b AABB) Expand(m float64) AABB {
	d := vec.V3{X: m, Y: m, Z: m}
	return AABB{Lo: b.Lo.Sub(d), Hi: b.Hi.Add(d)}
}

// Contains reports whether p is inside the box, treating periodic axes with
// minimum-image wrapping around the box center.
func (b AABB) Contains(p vec.V3, pbc tree.PBC) bool {
	c := b.Lo.Add(b.Hi).Scale(0.5)
	d := pbc.Wrap(p.Sub(c))
	half := b.Hi.Sub(b.Lo).Scale(0.5)
	return math.Abs(d.X) <= half.X && math.Abs(d.Y) <= half.Y && math.Abs(d.Z) <= half.Z
}

// BoundsOf returns the AABB of a rank-local set's owned particles.
func BoundsOf(ps *part.Set) AABB {
	lo, hi := ps.Bounds()
	return AABB{Lo: lo, Hi: hi}
}

// HaloPlan lists, for one sending rank, the particle indices to ship to each
// peer: the sender's owned particles that fall inside the peer's bounding
// box expanded by the halo margin (2 * max smoothing length, so every
// neighbor interaction of a peer particle can be satisfied locally).
type HaloPlan struct {
	// ToPeer[r] are local particle indices to send to rank r (empty for the
	// rank itself).
	ToPeer [][]int
}

// PlanHalo computes the halo plan for a rank given all peers' expanded
// bounding boxes. margin is the kernel support bound (2*hmax global).
func PlanHalo(local *part.Set, peerBoxes []AABB, self int, margin float64, pbc tree.PBC) HaloPlan {
	plan := HaloPlan{ToPeer: make([][]int, len(peerBoxes))}
	for r, box := range peerBoxes {
		if r == self {
			continue
		}
		eb := box.Expand(margin)
		for i := 0; i < local.NLocal; i++ {
			if eb.Contains(local.Pos[i], pbc) {
				plan.ToPeer[r] = append(plan.ToPeer[r], i)
			}
		}
	}
	return plan
}

// HaloBytesPerParticle is the modeled wire size of one full ghost particle
// (position, velocity, mass, h, rho, u, id).
const HaloBytesPerParticle = 3*8 + 3*8 + 8 + 8 + 8 + 8 + 8
