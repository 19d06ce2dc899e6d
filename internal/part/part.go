// Package part provides the structure-of-arrays particle store used by the
// SPH-EXA mini-app. A structure of arrays (rather than an array of structs)
// keeps each physical field contiguous, which is what vectorizing SPH loops
// and bulk halo exchange both want.
//
// A Set holds NLocal owned particles followed by ghost (halo) copies of
// remote particles; SPH loops run over owned particles but read neighbors
// from the full range.
package part

import (
	"fmt"
	"slices"

	"repro/internal/vec"
)

// Set is a structure-of-arrays particle container. All slices always have
// identical length. The first NLocal entries are owned by the local rank;
// the rest are ghosts appended by halo exchange and discarded on resize.
// ID, Pos, Vel, Mass, H, Rho and U are the state a stored record holds
// (encode.go); the other columns are recomputed by every step.
type Set struct {
	// NLocal is the number of locally-owned particles; entries at index
	// >= NLocal are halo ghosts.
	NLocal int

	ID   []int64   // global particle identifier
	Pos  []vec.V3  // position
	Vel  []vec.V3  // velocity
	Acc  []vec.V3  // acceleration (hydro + gravity)
	Mass []float64 // particle mass
	H    []float64 // smoothing length
	Rho  []float64 // density
	U    []float64 // specific internal energy
	DU   []float64 // du/dt
	P    []float64 // pressure
	C    []float64 // sound speed
	VE   []float64 // generalized volume element (SPHYNX); m/rho when standard
	NN   []int32   // neighbor count from the last search
	Tau  []vec.Sym33
}

// New returns a Set with n owned particles, all fields zeroed.
func New(n int) *Set { return new(Set).Reset(n) }

// Reset makes s a set of n owned particles, every field zero, keeping its
// columns' capacity, and returns it; a nil s returns New(n).
func (s *Set) Reset(n int) *Set {
	if s == nil {
		return New(n)
	}
	s.resizeAll(0)
	s.resizeAll(n)
	s.NLocal = n
	return s
}

// resizeAll sets every column's length to n. A column keeps its capacity
// when it shrinks, and grows by append's amortized rule, so ghost counts that
// wander from step to step stop reallocating once the largest has been seen.
// Slots beyond the old length are zero.
func (s *Set) resizeAll(n int) {
	resize(&s.ID, n)
	resize(&s.Pos, n)
	resize(&s.Vel, n)
	resize(&s.Acc, n)
	resize(&s.Mass, n)
	resize(&s.H, n)
	resize(&s.Rho, n)
	resize(&s.U, n)
	resize(&s.DU, n)
	resize(&s.P, n)
	resize(&s.C, n)
	resize(&s.VE, n)
	resize(&s.NN, n)
	resize(&s.Tau, n)
}

func resize[T any](p *[]T, n int) {
	old := len(*p)
	*p = slices.Grow((*p)[:0], n)[:n]
	clear((*p)[min(old, n):])
}

// Len returns the total particle count including ghosts.
func (s *Set) Len() int { return len(s.Pos) }

// NGhost returns the number of ghost particles currently appended.
func (s *Set) NGhost() int { return s.Len() - s.NLocal }

// DropGhosts truncates the set back to its owned particles.
func (s *Set) DropGhosts() {
	s.resizeAll(s.NLocal)
}

// GrowGhosts extends the set by n ghost slots (zeroed where newly allocated)
// and returns the index of the first new slot.
func (s *Set) GrowGhosts(n int) int {
	old := s.Len()
	s.resizeAll(old + n)
	return old
}

// CopyFrom copies particle src of o into slot dst of s.
func (s *Set) CopyFrom(dst int, o *Set, src int) {
	s.ID[dst] = o.ID[src]
	s.Pos[dst] = o.Pos[src]
	s.Vel[dst] = o.Vel[src]
	s.Acc[dst] = o.Acc[src]
	s.Mass[dst] = o.Mass[src]
	s.H[dst] = o.H[src]
	s.Rho[dst] = o.Rho[src]
	s.U[dst] = o.U[src]
	s.DU[dst] = o.DU[src]
	s.P[dst] = o.P[src]
	s.C[dst] = o.C[src]
	s.VE[dst] = o.VE[src]
	s.NN[dst] = o.NN[src]
	s.Tau[dst] = o.Tau[src]
}

// Select returns a new Set containing the owned particles at the given
// indices, in order. Indices must be < NLocal.
func (s *Set) Select(idx []int) *Set {
	out := New(len(idx))
	for k, i := range idx {
		if i >= s.NLocal {
			panic(fmt.Sprintf("part: Select index %d >= NLocal %d", i, s.NLocal))
		}
		out.CopyFrom(k, s, i)
	}
	return out
}

// AppendOwned appends all owned particles of o to s as owned particles.
// Ghosts in s are dropped first (owned particles must stay contiguous).
func (s *Set) AppendOwned(o *Set) {
	s.DropGhosts()
	base := s.Len()
	s.resizeAll(base + o.NLocal)
	for i := 0; i < o.NLocal; i++ {
		s.CopyFrom(base+i, o, i)
	}
	s.NLocal = s.Len()
}

// Clone returns a deep copy of s (including ghosts).
func (s *Set) Clone() *Set {
	out := New(s.Len())
	out.NLocal = s.NLocal
	copy(out.ID, s.ID)
	copy(out.Pos, s.Pos)
	copy(out.Vel, s.Vel)
	copy(out.Acc, s.Acc)
	copy(out.Mass, s.Mass)
	copy(out.H, s.H)
	copy(out.Rho, s.Rho)
	copy(out.U, s.U)
	copy(out.DU, s.DU)
	copy(out.P, s.P)
	copy(out.C, s.C)
	copy(out.VE, s.VE)
	copy(out.NN, s.NN)
	copy(out.Tau, s.Tau)
	return out
}

// Bounds returns the axis-aligned bounding box of the owned particles.
// It returns zero vectors for an empty set.
func (s *Set) Bounds() (lo, hi vec.V3) {
	if s.NLocal == 0 {
		return vec.V3{}, vec.V3{}
	}
	lo, hi = s.Pos[0], s.Pos[0]
	for i := 1; i < s.NLocal; i++ {
		lo = lo.Min(s.Pos[i])
		hi = hi.Max(s.Pos[i])
	}
	return lo, hi
}

// TotalMass returns the sum of owned particle masses.
func (s *Set) TotalMass() float64 {
	var m float64
	for i := 0; i < s.NLocal; i++ {
		m += s.Mass[i]
	}
	return m
}

// Validate performs cheap structural sanity checks and returns an error
// describing the first violation: mismatched field lengths, non-positive
// mass or smoothing length, or non-finite positions. The silent-data-
// corruption detectors in internal/ft use it as their structural predicate.
func (s *Set) Validate() error {
	n := s.Len()
	lens := map[string]int{
		"ID": len(s.ID), "Pos": len(s.Pos), "Vel": len(s.Vel), "Acc": len(s.Acc),
		"Mass": len(s.Mass), "H": len(s.H), "Rho": len(s.Rho), "U": len(s.U),
		"DU": len(s.DU), "P": len(s.P), "C": len(s.C), "VE": len(s.VE),
		"NN": len(s.NN), "Tau": len(s.Tau),
	}
	for f, l := range lens {
		if l != n {
			return fmt.Errorf("part: field %s has length %d, want %d", f, l, n)
		}
	}
	if s.NLocal < 0 || s.NLocal > n {
		return fmt.Errorf("part: NLocal %d out of range [0,%d]", s.NLocal, n)
	}
	for i := 0; i < s.NLocal; i++ {
		if s.Mass[i] <= 0 {
			return fmt.Errorf("part: particle %d (id %d) has mass %g", i, s.ID[i], s.Mass[i])
		}
		if s.H[i] <= 0 {
			return fmt.Errorf("part: particle %d (id %d) has smoothing length %g", i, s.ID[i], s.H[i])
		}
		if !s.Pos[i].IsFinite() {
			return fmt.Errorf("part: particle %d (id %d) has non-finite position %v", i, s.ID[i], s.Pos[i])
		}
		if !s.Vel[i].IsFinite() {
			return fmt.Errorf("part: particle %d (id %d) has non-finite velocity %v", i, s.ID[i], s.Vel[i])
		}
	}
	return nil
}
