// Package vec provides small fixed-size linear algebra used throughout the
// SPH-EXA mini-app: 3-component vectors and 3x3 symmetric matrices.
//
// The symmetric matrix type exists because the integral approach to
// derivatives (IAD, García-Senz et al. 2012) requires inverting, for every
// particle, the 3x3 moment matrix tau_i = sum_j V_j (r_j-r_i)(r_j-r_i)^T W_ij,
// which is symmetric positive definite for any non-degenerate neighborhood.
package vec

import "math"

// V3 is a 3-component double-precision vector. All SPH-EXA state (positions,
// velocities, accelerations) is 64-bit per the mini-app precision requirement
// (paper Table 4).
type V3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v V3) Add(w V3) V3 { return V3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v V3) Sub(w V3) V3 { return V3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v V3) Scale(s float64) V3 { return V3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product v.w.
func (v V3) Dot(w V3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the vector product v x w.
func (v V3) Cross(w V3) V3 {
	return V3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm2 returns |v|^2.
func (v V3) Norm2() float64 { return v.Dot(v) }

// Norm returns |v|.
func (v V3) Norm() float64 { return math.Sqrt(v.Norm2()) }

// MulAdd returns v + s*w without intermediate allocation semantics; it is the
// fused update used by the integrators.
func (v V3) MulAdd(s float64, w V3) V3 {
	return V3{v.X + s*w.X, v.Y + s*w.Y, v.Z + s*w.Z}
}

// Min returns the component-wise minimum of v and w.
func (v V3) Min(w V3) V3 {
	return V3{math.Min(v.X, w.X), math.Min(v.Y, w.Y), math.Min(v.Z, w.Z)}
}

// Max returns the component-wise maximum of v and w.
func (v V3) Max(w V3) V3 {
	return V3{math.Max(v.X, w.X), math.Max(v.Y, w.Y), math.Max(v.Z, w.Z)}
}

// Comp returns component i (0=X, 1=Y, 2=Z). It panics for other indices,
// matching slice semantics.
func (v V3) Comp(i int) float64 {
	switch i {
	case 0:
		return v.X
	case 1:
		return v.Y
	case 2:
		return v.Z
	}
	panic("vec: component index out of range")
}

// IsFinite reports whether every component is finite (no NaN or Inf).
// Silent-data-corruption detectors use it as a cheap sanity predicate.
func (v V3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// Sym33 is a symmetric 3x3 matrix stored as its upper triangle:
//
//	| XX XY XZ |
//	| XY YY YZ |
//	| XZ YZ ZZ |
type Sym33 struct {
	XX, XY, XZ, YY, YZ, ZZ float64
}

// Add returns m + n.
func (m Sym33) Add(n Sym33) Sym33 {
	return Sym33{
		m.XX + n.XX, m.XY + n.XY, m.XZ + n.XZ,
		m.YY + n.YY, m.YZ + n.YZ, m.ZZ + n.ZZ,
	}
}

// AddScaledOuter returns m + s * (r r^T), the accumulation step of the IAD
// tau-matrix without constructing the intermediate outer product.
func (m Sym33) AddScaledOuter(s float64, r V3) Sym33 {
	return Sym33{
		m.XX + s*r.X*r.X, m.XY + s*r.X*r.Y, m.XZ + s*r.X*r.Z,
		m.YY + s*r.Y*r.Y, m.YZ + s*r.Y*r.Z,
		m.ZZ + s*r.Z*r.Z,
	}
}

// MulVec returns m * v.
func (m Sym33) MulVec(v V3) V3 {
	return V3{
		m.XX*v.X + m.XY*v.Y + m.XZ*v.Z,
		m.XY*v.X + m.YY*v.Y + m.YZ*v.Z,
		m.XZ*v.X + m.YZ*v.Y + m.ZZ*v.Z,
	}
}

// Det returns the determinant of m.
func (m Sym33) Det() float64 {
	return m.XX*(m.YY*m.ZZ-m.YZ*m.YZ) -
		m.XY*(m.XY*m.ZZ-m.YZ*m.XZ) +
		m.XZ*(m.XY*m.YZ-m.YY*m.XZ)
}

// Trace returns the trace of m.
func (m Sym33) Trace() float64 { return m.XX + m.YY + m.ZZ }

// Inverse returns m^-1 and true, or the zero matrix and false when m is
// numerically singular (|det| below 1e-300, which for IAD means a degenerate
// neighbor configuration; callers fall back to kernel-derivative gradients).
func (m Sym33) Inverse() (Sym33, bool) {
	det := m.Det()
	if math.Abs(det) < 1e-300 || math.IsNaN(det) || math.IsInf(det, 0) {
		return Sym33{}, false
	}
	inv := 1 / det
	return Sym33{
		XX: (m.YY*m.ZZ - m.YZ*m.YZ) * inv,
		XY: (m.XZ*m.YZ - m.XY*m.ZZ) * inv,
		XZ: (m.XY*m.YZ - m.XZ*m.YY) * inv,
		YY: (m.XX*m.ZZ - m.XZ*m.XZ) * inv,
		YZ: (m.XY*m.XZ - m.XX*m.YZ) * inv,
		ZZ: (m.XX*m.YY - m.XY*m.XY) * inv,
	}, true
}
