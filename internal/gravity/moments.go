// Package gravity implements tree-based self-gravity (step 4 of the paper's
// Algorithm 1): Barnes-Hut traversal with Cartesian multipole expansions.
// SPHYNX accepts nodes at quadrupole ("4-pole") order and ChaNGa at
// hexadecapole ("16-pole") order (paper Table 1); the mini-app supports both
// plus monopole, and a direct-summation reference for validation (Table 2:
// "Multipoles (16-pole)").
package gravity

import (
	"repro/internal/vec"
)

// Order is the multipole expansion order.
type Order int

const (
	// Monopole approximates a node by its total mass at its center of mass.
	Monopole Order = iota
	// Quadrupole adds the raw second moment (SPHYNX's "4-pole").
	Quadrupole
	// Hexadecapole adds third and fourth raw moments (ChaNGa's "16-pole").
	Hexadecapole
)

// String implements fmt.Stringer.
func (o Order) String() string {
	switch o {
	case Monopole:
		return "monopole"
	case Quadrupole:
		return "quadrupole (4-pole)"
	case Hexadecapole:
		return "hexadecapole (16-pole)"
	}
	return "unknown"
}

// sym3Index maps sorted (i<=j<=k) to the canonical 10-element rank-3 layout.
var sym3Index = [3][3][3]int{}

// sym4Index maps sorted (i<=j<=k<=l) to the canonical 15-element layout.
var sym4Index = [3][3][3][3]int{}

func init() {
	n := 0
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			for k := j; k < 3; k++ {
				sym3Index[i][j][k] = n
				n++
			}
		}
	}
	n = 0
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			for k := j; k < 3; k++ {
				for l := k; l < 3; l++ {
					sym4Index[i][j][k][l] = n
					n++
				}
			}
		}
	}
}

func sort3(i, j, k int) (int, int, int) {
	if i > j {
		i, j = j, i
	}
	if j > k {
		j, k = k, j
	}
	if i > j {
		i, j = j, i
	}
	return i, j, k
}

func sort4(i, j, k, l int) (int, int, int, int) {
	if i > j {
		i, j = j, i
	}
	if k > l {
		k, l = l, k
	}
	if i > k {
		i, k = k, i
	}
	if j > l {
		j, l = l, j
	}
	if j > k {
		j, k = k, j
	}
	return i, j, k, l
}

// Sym3 is a fully symmetric rank-3 tensor (10 independent components).
type Sym3 [10]float64

// At returns component (i, j, k).
func (t *Sym3) At(i, j, k int) float64 {
	i, j, k = sort3(i, j, k)
	return t[sym3Index[i][j][k]]
}

// Sym4 is a fully symmetric rank-4 tensor (15 independent components).
type Sym4 [15]float64

// At returns component (i, j, k, l).
func (t *Sym4) At(i, j, k, l int) float64 {
	i, j, k, l = sort4(i, j, k, l)
	return t[sym4Index[i][j][k][l]]
}

// Moments holds the raw (non-traceless) multipole moments of a node about
// its center of mass: M2_ij = sum m d_i d_j, M3_ijk = sum m d_i d_j d_k,
// M4_ijkl = sum m d_i d_j d_k d_l, with d the offset from the COM. The
// dipole vanishes identically about the COM.
type Moments struct {
	Mass float64
	COM  vec.V3
	M2   vec.Sym33
	M3   Sym3
	M4   Sym4
	// RMax is the maximum particle distance from the COM, used in the
	// acceptance criterion to guard against COM drift toward a cell edge.
	RMax float64
}

// accumulate adds a point mass at offset d from the (already fixed) COM.
func (m *Moments) accumulate(mass float64, d vec.V3) {
	m.M2 = m.M2.AddScaledOuter(mass, d)
	c := [3]float64{d.X, d.Y, d.Z}
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			for k := j; k < 3; k++ {
				m.M3[sym3Index[i][j][k]] += mass * c[i] * c[j] * c[k]
				for l := k; l < 3; l++ {
					m.M4[sym4Index[i][j][k][l]] += mass * c[i] * c[j] * c[k] * c[l]
				}
			}
		}
	}
	if r := d.Norm(); r > m.RMax {
		m.RMax = r
	}
}

// translate shifts child moments (about the child COM) to the parent COM and
// adds them into m. b is childCOM - parentCOM; moments transform by the
// binomial expansion with the child dipole identically zero.
func (m *Moments) translate(ch *Moments) {
	b := ch.COM.Sub(m.COM)
	bc := [3]float64{b.X, b.Y, b.Z}
	mc := ch.Mass

	// Rank 2: M2 += M2c + m b b.
	m.M2 = m.M2.Add(ch.M2).AddScaledOuter(mc, b)

	m2c := func(i, j int) float64 { return sym33At(ch.M2, i, j) }
	m3c := func(i, j, k int) float64 { return ch.M3.At(i, j, k) }

	// Rank 3: M3 += M3c + b_i M2c_jk + b_j M2c_ik + b_k M2c_ij + m b b b.
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			for k := j; k < 3; k++ {
				v := m3c(i, j, k) +
					bc[i]*m2c(j, k) + bc[j]*m2c(i, k) + bc[k]*m2c(i, j) +
					mc*bc[i]*bc[j]*bc[k]
				m.M3[sym3Index[i][j][k]] += v
			}
		}
	}

	// Rank 4: M4 += M4c + sym4(b, M3c) + sym6(bb, M2c) + m b^4.
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			for k := j; k < 3; k++ {
				for l := k; l < 3; l++ {
					v := ch.M4.At(i, j, k, l) +
						bc[i]*m3c(j, k, l) + bc[j]*m3c(i, k, l) +
						bc[k]*m3c(i, j, l) + bc[l]*m3c(i, j, k) +
						bc[i]*bc[j]*m2c(k, l) + bc[i]*bc[k]*m2c(j, l) +
						bc[i]*bc[l]*m2c(j, k) + bc[j]*bc[k]*m2c(i, l) +
						bc[j]*bc[l]*m2c(i, k) + bc[k]*bc[l]*m2c(i, j) +
						mc*bc[i]*bc[j]*bc[k]*bc[l]
					m.M4[sym4Index[i][j][k][l]] += v
				}
			}
		}
	}

	if r := b.Norm() + ch.RMax; r > m.RMax {
		m.RMax = r
	}
}

func sym33At(m vec.Sym33, i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	switch {
	case i == 0 && j == 0:
		return m.XX
	case i == 0 && j == 1:
		return m.XY
	case i == 0 && j == 2:
		return m.XZ
	case i == 1 && j == 1:
		return m.YY
	case i == 1 && j == 2:
		return m.YZ
	default:
		return m.ZZ
	}
}
