package gravity

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/sfc"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Solver evaluates self-gravity on a particle set through a Barnes-Hut walk
// over an octree built by internal/tree. Construct one with NewSolver (moment
// computation), or Reset a kept one each step, then call Accelerations.
type Solver struct {
	tr      *tree.Tree
	pos     []vec.V3
	mass    []float64
	moments []Moments

	// What the walk reads, packed by Reset: one cell per tree node, the
	// sources in tree order, and each particle's place in that order.
	cells []cell
	srcs  []source
	place []int32

	// Order is the multipole expansion order used when a node is accepted.
	Order Order
	// Theta is the Barnes-Hut opening angle: a node of edge size s at
	// distance d is accepted when s/d < Theta. Typical 0.5-0.8.
	Theta float64
	// Eps is the Plummer softening length.
	Eps float64
	// G is the gravitational constant (1 in the Evrard test's natural units).
	G float64
}

// cell is what the walk reads of one tree node, in 64 bytes: its moments'
// COM, mass and RMax, its edge size and its node links.
type cell struct {
	COM                      vec.V3
	Mass                     float64
	Size                     float64 // 2 * Half
	RMax                     float64
	FirstChild, Start, Count int32
}

// source is one particle as a direct sum reads it.
type source struct {
	Pos  vec.V3
	Mass float64
}

// NewSolver computes node multipole moments bottom-up over tr and returns a
// solver. pos and mass are indexed by the same particle indices tr was built
// from.
func NewSolver(tr *tree.Tree, pos []vec.V3, mass []float64) *Solver {
	s := &Solver{Order: Hexadecapole, Theta: 0.6, G: 1}
	s.Reset(tr, pos, mass)
	return s
}

// Reset points s at a new tree and particle set, recomputes the moments and
// packs the walk's arrays, all in the capacity of the previous ones. Order,
// Theta, Eps and G are kept.
func (s *Solver) Reset(tr *tree.Tree, pos []vec.V3, mass []float64) {
	s.tr, s.pos, s.mass = tr, pos, mass
	s.moments = slices.Grow(s.moments[:0], len(tr.Nodes))[:len(tr.Nodes)]
	clear(s.moments)
	if len(tr.Nodes) > 0 {
		s.computeMoments(0)
	}
	s.cells = slices.Grow(s.cells[:0], len(tr.Nodes))[:len(tr.Nodes)]
	for i := range tr.Nodes {
		nd, m := &tr.Nodes[i], &s.moments[i]
		s.cells[i] = cell{COM: m.COM, Mass: m.Mass, Size: 2 * nd.Half, RMax: m.RMax,
			FirstChild: nd.FirstChild, Start: nd.Start, Count: nd.Count}
	}
	s.srcs = slices.Grow(s.srcs[:0], len(tr.Index))[:len(tr.Index)]
	s.place = slices.Grow(s.place[:0], len(pos))[:len(pos)]
	for k, j := range tr.Index {
		s.srcs[k] = source{Pos: pos[j], Mass: mass[j]}
		s.place[j] = int32(k)
	}
}

// computeMoments fills moments[ni] bottom-up: leaves from particles (P2M),
// internal nodes by translating child moments (M2M).
func (s *Solver) computeMoments(ni int) {
	nd := &s.tr.Nodes[ni]
	m := &s.moments[ni]
	if nd.IsLeaf() {
		var mass float64
		var com vec.V3
		for k := nd.Start; k < nd.Start+nd.Count; k++ {
			j := s.tr.Index[k]
			mass += s.mass[j]
			com = com.MulAdd(s.mass[j], s.pos[j])
		}
		m.Mass = mass
		if mass > 0 {
			m.COM = com.Scale(1 / mass)
		} else {
			m.COM = nd.Center
		}
		for k := nd.Start; k < nd.Start+nd.Count; k++ {
			j := s.tr.Index[k]
			m.accumulate(s.mass[j], s.pos[j].Sub(m.COM))
		}
		return
	}
	var mass float64
	var com vec.V3
	for c := nd.FirstChild; c < nd.FirstChild+8; c++ {
		s.computeMoments(int(c))
		cm := &s.moments[c]
		mass += cm.Mass
		com = com.MulAdd(cm.Mass, cm.COM)
	}
	m.Mass = mass
	if mass > 0 {
		m.COM = com.Scale(1 / mass)
	} else {
		m.COM = nd.Center
	}
	for c := nd.FirstChild; c < nd.FirstChild+8; c++ {
		if s.moments[c].Mass > 0 {
			m.translate(&s.moments[c])
		}
	}
}

// Result holds per-particle gravitational acceleration and potential.
type Result struct {
	Acc []vec.V3
	Pot []float64 // potential (negative for bound configurations)
	// NodeInteractions and ParticleInteractions count accepted cells and
	// direct particle pairs, the work metric for load balancing.
	NodeInteractions     int64
	ParticleInteractions int64
}

// Accelerations evaluates gravity for the targets (particle indices).
// workers <= 0 uses GOMAXPROCS. Self-interaction is excluded.
func (s *Solver) Accelerations(targets []int32, workers int) *Result {
	res := new(Result)
	s.AccelerationsInto(res, targets, workers)
	return res
}

// AccelerationsInto is Accelerations writing into res, whose slices keep
// their capacity. Solvers are read-only here: ranks share one.
func (s *Solver) AccelerationsInto(res *Result, targets []int32, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(targets)
	res.Acc, res.Pot = slices.Grow(res.Acc[:0], n)[:n], slices.Grow(res.Pot[:0], n)[:n]
	// Interaction counts: a local in the loop, added once after it (the
	// par.Range accumulator rule); integer sums do not depend on the order.
	var nodes, pairs atomic.Int64
	par.Range(n, workers, func(_, lo, hi int) {
		var ni, pi int64
		for t := lo; t < hi; t++ {
			j := targets[t]
			a, p, n1, n2 := s.walk(s.pos[j], s.place[j])
			res.Acc[t], res.Pot[t] = a, p
			ni += n1
			pi += n2
		}
		nodes.Add(ni)
		pairs.Add(pi)
	})
	res.NodeInteractions, res.ParticleInteractions = nodes.Load(), pairs.Load()
}

// walk sums over the tree the gravity on the particle at position p and
// tree place self, returning acceleration, potential and interaction
// counts. It visits cells depth first in child order from a stack of its
// own, and sums in visit order.
func (s *Solver) walk(p vec.V3, self int32) (acc vec.V3, pot float64, nodes, pairs int64) {
	// Each of the at most sfc.Bits levels below the root pops one cell and
	// pushes up to eight.
	var stack [7*sfc.Bits + 1]int32
	sp := 0
	if len(s.cells) > 0 && s.cells[0].Mass > 0 {
		sp = 1
	}
	e2 := s.Eps * s.Eps
	for sp > 0 {
		sp--
		ni := stack[sp]
		c := &s.cells[ni]
		R := p.Sub(c.COM)
		dist := R.Norm()

		// Multipole acceptance criterion: geometric opening angle with an
		// RMax guard (a node whose COM sits near its edge must open sooner).
		open := dist*s.Theta <= c.Size || dist <= c.RMax
		leaf := c.FirstChild < 0
		switch {
		case !leaf && open:
			// Children last first, so they pop in child order.
			for ch := c.FirstChild + 7; ch >= c.FirstChild; ch-- {
				if s.cells[ch].Mass > 0 {
					stack[sp] = ch
					sp++
				}
			}
		case leaf && (open || int(c.Count) <= 8):
			// Direct summation over the leaf's sources.
			for k := c.Start; k < c.Start+c.Count; k++ {
				if k == self {
					continue
				}
				src := &s.srcs[k]
				d := p.Sub(src.Pos)
				inv := 1 / math.Sqrt(d.Norm2()+e2)
				f := -s.G * src.Mass * inv
				acc = acc.MulAdd(f*inv*inv, d)
				pot += f
				pairs++
			}
		case s.Order == Monopole:
			// Accepted at monopole order: the packed cell is all it needs.
			inv := 1 / math.Sqrt(R.Norm2()+e2)
			f := -s.G * c.Mass * inv
			acc = acc.MulAdd(f*inv*inv, R)
			pot += f
			nodes++
		default:
			// Accepted: evaluate the multipole expansion.
			a, po := s.evaluate(&s.moments[ni], R)
			acc = acc.Add(a)
			pot += po
			nodes++
		}
	}
	return acc, pot, nodes, pairs
}

// evaluate computes acceleration and potential of the node expansion at
// offset R from the node COM, at quadrupole order or above (softened
// monopole; higher moments unsoftened, valid because acceptance implies
// dist >> eps in practice). walk evaluates monopole cells itself.
func (s *Solver) evaluate(m *Moments, R vec.V3) (vec.V3, float64) {
	e2 := s.Eps * s.Eps
	r2 := R.Norm2() + e2
	r1 := math.Sqrt(r2)
	inv := 1 / r1
	inv2 := inv * inv
	inv3 := inv * inv2
	inv5 := inv3 * inv2
	inv7 := inv5 * inv2

	// Monopole.
	pot := -s.G * m.Mass * inv
	acc := R.Scale(-s.G * m.Mass * inv3)

	// Quadrupole (raw second moment).
	q2 := m.M2.MulVec(R).Dot(R) // M2_ij R_i R_j
	tr2 := m.M2.Trace()
	m2r := m.M2.MulVec(R)
	pot += -s.G * (1.5*q2*inv5 - 0.5*tr2*inv3)
	// grad of bracket terms (see package docs): 3 M2R/r^5 - 7.5 q2 R/r^7 + 1.5 tr2 R/r^5
	acc = acc.Add(m2r.Scale(3 * inv5).
		Add(R.Scale(-7.5 * q2 * inv7)).
		Add(R.Scale(1.5 * tr2 * inv5)).Scale(s.G))
	if s.Order == Quadrupole {
		return acc, pot
	}

	inv9 := inv7 * inv2
	inv11 := inv9 * inv2
	rc := [3]float64{R.X, R.Y, R.Z}

	// Rank-3 contractions: q3 = M3 R R R, w3_i = M3_ijk R_j R_k, t3_i = M3_ijj.
	var q3 float64
	var w3, t3 [3]float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				v := m.M3.At(i, j, k)
				w3[i] += v * rc[j] * rc[k]
				if j == k {
					t3[i] += v
				}
			}
		}
		q3 += w3[i] * rc[i]
	}
	s3 := t3[0]*rc[0] + t3[1]*rc[1] + t3[2]*rc[2]

	// Rank-4 contractions: q4 = M4 RRRR, w4_i = M4_ijkl R_j R_k R_l,
	// t4_ij = M4_ijkk, s4 = t4_ij R_i R_j, tt4 = M4_iijj.
	var q4, s4, tt4 float64
	var w4, t4r [3]float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var t4ij float64
			for k := 0; k < 3; k++ {
				for l := 0; l < 3; l++ {
					v := m.M4.At(i, j, k, l)
					w4[i] += v * rc[j] * rc[k] * rc[l]
					if k == l {
						t4ij += v
					}
				}
			}
			t4r[i] += t4ij * rc[j]
			if i == j {
				tt4 += t4ij
			}
		}
		q4 += w4[i] * rc[i]
		s4 += t4r[i] * rc[i]
	}

	// Octupole + hexadecapole potential terms.
	pot += -s.G * (2.5*q3*inv7 - 1.5*s3*inv5 +
		4.375*q4*inv9 - 3.75*s4*inv7 + 0.375*tt4*inv5)

	// Gradient terms.
	gx := 7.5*w3[0]*inv7 - 17.5*q3*rc[0]*inv9 - 1.5*t3[0]*inv5 + 7.5*s3*rc[0]*inv7 +
		17.5*w4[0]*inv9 - 39.375*q4*rc[0]*inv11 - 7.5*t4r[0]*inv7 + 26.25*s4*rc[0]*inv9 - 1.875*tt4*rc[0]*inv7
	gy := 7.5*w3[1]*inv7 - 17.5*q3*rc[1]*inv9 - 1.5*t3[1]*inv5 + 7.5*s3*rc[1]*inv7 +
		17.5*w4[1]*inv9 - 39.375*q4*rc[1]*inv11 - 7.5*t4r[1]*inv7 + 26.25*s4*rc[1]*inv9 - 1.875*tt4*rc[1]*inv7
	gz := 7.5*w3[2]*inv7 - 17.5*q3*rc[2]*inv9 - 1.5*t3[2]*inv5 + 7.5*s3*rc[2]*inv7 +
		17.5*w4[2]*inv9 - 39.375*q4*rc[2]*inv11 - 7.5*t4r[2]*inv7 + 26.25*s4*rc[2]*inv9 - 1.875*tt4*rc[2]*inv7
	acc = acc.Add(vec.V3{X: gx, Y: gy, Z: gz}.Scale(s.G))
	return acc, pot
}

// Direct computes gravity by direct O(N^2) summation — the validation
// reference and the baseline for the multipole-order ablation benchmark.
// It returns accelerations and potentials for all n particles.
func Direct(pos []vec.V3, mass []float64, g, eps float64, workers int) *Result {
	n := len(pos)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := &Result{Acc: make([]vec.V3, n), Pot: make([]float64, n)}
	e2 := eps * eps
	par.Range(n, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var acc vec.V3
			var pot float64
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				d := pos[i].Sub(pos[j])
				r2 := d.Norm2() + e2
				r1 := math.Sqrt(r2)
				inv := 1 / r1
				acc = acc.MulAdd(-g*mass[j]*inv/r2, d)
				pot -= g * mass[j] * inv
			}
			res.Acc[i] = acc
			res.Pot[i] = pot
		}
	})
	res.ParticleInteractions = int64(n) * int64(n-1)
	return res
}
