package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func v3AlmostEq(a, b V3, tol float64) bool {
	return almostEq(a.X, b.X, tol) && almostEq(a.Y, b.Y, tol) && almostEq(a.Z, b.Z, tol)
}

func TestAddSub(t *testing.T) {
	a := V3{1, 2, 3}
	b := V3{-4, 5, 0.5}
	if got := a.Add(b); got != (V3{-3, 7, 3.5}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (V3{5, -3, 2.5}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Add(b).Sub(b); !v3AlmostEq(got, a, 1e-15) {
		t.Errorf("Add then Sub not identity: %v", got)
	}
}

func TestScaleNeg(t *testing.T) {
	a := V3{1, -2, 3}
	if got := a.Scale(2); got != (V3{2, -4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Neg(); got != (V3{-1, 2, -3}) {
		t.Errorf("Neg = %v", got)
	}
	if got := a.Scale(-1); got != a.Neg() {
		t.Errorf("Scale(-1) != Neg: %v", got)
	}
}

func TestDotCross(t *testing.T) {
	x := V3{1, 0, 0}
	y := V3{0, 1, 0}
	z := V3{0, 0, 1}
	if got := x.Cross(y); got != z {
		t.Errorf("x cross y = %v, want z", got)
	}
	if got := y.Cross(z); got != x {
		t.Errorf("y cross z = %v, want x", got)
	}
	if got := z.Cross(x); got != y {
		t.Errorf("z cross x = %v, want y", got)
	}
	if d := x.Dot(y); d != 0 {
		t.Errorf("x.y = %v, want 0", d)
	}
	a := V3{3, -1, 2}
	if got := a.Cross(a); got != (V3{}) {
		t.Errorf("a cross a = %v, want zero", got)
	}
}

func TestNorm(t *testing.T) {
	a := V3{3, 4, 0}
	if got := a.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := a.Norm2(); got != 25 {
		t.Errorf("Norm2 = %v, want 25", got)
	}
}

func TestMulAdd(t *testing.T) {
	a := V3{1, 1, 1}
	b := V3{2, 3, 4}
	want := a.Add(b.Scale(0.5))
	if got := a.MulAdd(0.5, b); !v3AlmostEq(got, want, 1e-15) {
		t.Errorf("MulAdd = %v, want %v", got, want)
	}
}

func TestMinMax(t *testing.T) {
	a := V3{1, 5, -2}
	b := V3{3, 2, -1}
	if got := a.Min(b); got != (V3{1, 2, -2}) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != (V3{3, 5, -1}) {
		t.Errorf("Max = %v", got)
	}
}

func TestCompAccess(t *testing.T) {
	a := V3{7, 8, 9}
	for i, want := range []float64{7, 8, 9} {
		if got := a.Comp(i); got != want {
			t.Errorf("Comp(%d) = %v, want %v", i, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Comp(3) did not panic")
		}
	}()
	a.Comp(3)
}

func TestIsFinite(t *testing.T) {
	if !(V3{1, 2, 3}).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	bad := []V3{
		{math.NaN(), 0, 0},
		{0, math.Inf(1), 0},
		{0, 0, math.Inf(-1)},
	}
	for _, v := range bad {
		if v.IsFinite() {
			t.Errorf("%v reported finite", v)
		}
	}
}

// outer is the symmetric outer product r r^T.
func outer(r V3) Sym33 { return Sym33{}.AddScaledOuter(1, r) }

func TestOuter(t *testing.T) {
	r := V3{1, 2, 3}
	m := outer(r)
	want := Sym33{XX: 1, XY: 2, XZ: 3, YY: 4, YZ: 6, ZZ: 9}
	if m != want {
		t.Errorf("Outer = %+v, want %+v", m, want)
	}
	// m*v == r (r.v) for the outer product.
	v := V3{0.5, -1, 2}
	got := m.MulVec(v)
	exp := r.Scale(r.Dot(v))
	if !v3AlmostEq(got, exp, 1e-14) {
		t.Errorf("Outer MulVec = %v, want %v", got, exp)
	}
}

func TestSym33AddScale(t *testing.T) {
	m := Sym33{1, 2, 3, 4, 5, 6}
	n := Sym33{6, 5, 4, 3, 2, 1}
	if got := m.Add(n); got != (Sym33{7, 7, 7, 7, 7, 7}) {
		t.Errorf("Add = %+v", got)
	}
	if got := m.Scale(2); got != (Sym33{2, 4, 6, 8, 10, 12}) {
		t.Errorf("Scale = %+v", got)
	}
}

func TestAddScaledOuter(t *testing.T) {
	m := Sym33{1, 0, 0, 1, 0, 1}
	r := V3{1, 2, 3}
	got := m.AddScaledOuter(2, r)
	want := m.Add(Sym33{XX: 1, XY: 2, XZ: 3, YY: 4, YZ: 6, ZZ: 9}.Scale(2))
	if got != want {
		t.Errorf("AddScaledOuter = %+v, want %+v", got, want)
	}
}

// identity is the 3x3 identity matrix.
var identity = Sym33{XX: 1, YY: 1, ZZ: 1}

func TestIdentityInverse(t *testing.T) {
	id := identity
	inv, ok := id.Inverse()
	if !ok || inv != id {
		t.Errorf("Identity inverse = %+v ok=%v", inv, ok)
	}
	if id.Det() != 1 {
		t.Errorf("Identity det = %v", id.Det())
	}
	if id.Trace() != 3 {
		t.Errorf("Identity trace = %v", id.Trace())
	}
}

func TestInverseKnown(t *testing.T) {
	// Diagonal matrix.
	m := Sym33{XX: 2, YY: 4, ZZ: 8}
	inv, ok := m.Inverse()
	if !ok {
		t.Fatal("diagonal inverse failed")
	}
	want := Sym33{XX: 0.5, YY: 0.25, ZZ: 0.125}
	if inv != want {
		t.Errorf("Inverse = %+v, want %+v", inv, want)
	}
}

func TestInverseSingular(t *testing.T) {
	// Rank-1 matrix is singular.
	m := outer(V3{1, 2, 3})
	if _, ok := m.Inverse(); ok {
		t.Error("singular matrix inverted")
	}
	var zero Sym33
	if _, ok := zero.Inverse(); ok {
		t.Error("zero matrix inverted")
	}
}

func TestInverseNaN(t *testing.T) {
	m := Sym33{XX: math.NaN(), YY: 1, ZZ: 1}
	if _, ok := m.Inverse(); ok {
		t.Error("NaN matrix inverted")
	}
}

// Property: (m^-1) * (m * v) == v for well-conditioned SPD matrices.
func TestInverseProperty(t *testing.T) {
	f := func(a, b, c, d, e, g float64) bool {
		// Build an SPD matrix: A = B B^T + I, with bounded entries.
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0.5
			}
			return math.Mod(x, 3)
		}
		r1 := V3{clamp(a), clamp(b), clamp(c)}
		r2 := V3{clamp(d), clamp(e), clamp(g)}
		m := identity.Add(outer(r1)).Add(outer(r2))
		inv, ok := m.Inverse()
		if !ok {
			return false // SPD + I must be invertible
		}
		v := V3{1, -2, 0.5}
		got := inv.MulVec(m.MulVec(v))
		return v3AlmostEq(got, v, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: vector algebra identities hold for arbitrary finite inputs.
func TestVectorIdentities(t *testing.T) {
	clamp := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 1
		}
		return math.Mod(x, 100)
	}
	mk := func(a, b, c float64) V3 { return V3{clamp(a), clamp(b), clamp(c)} }

	// a x b is orthogonal to both a and b.
	ortho := func(a1, a2, a3, b1, b2, b3 float64) bool {
		a, b := mk(a1, a2, a3), mk(b1, b2, b3)
		c := a.Cross(b)
		scale := a.Norm()*b.Norm() + 1
		return math.Abs(c.Dot(a)) < 1e-9*scale*scale && math.Abs(c.Dot(b)) < 1e-9*scale*scale
	}
	if err := quick.Check(ortho, nil); err != nil {
		t.Errorf("orthogonality: %v", err)
	}

	// |a+b| <= |a| + |b| (triangle inequality).
	tri := func(a1, a2, a3, b1, b2, b3 float64) bool {
		a, b := mk(a1, a2, a3), mk(b1, b2, b3)
		return a.Add(b).Norm() <= a.Norm()+b.Norm()+1e-12
	}
	if err := quick.Check(tri, nil); err != nil {
		t.Errorf("triangle inequality: %v", err)
	}

	// Dot is symmetric.
	sym := func(a1, a2, a3, b1, b2, b3 float64) bool {
		a, b := mk(a1, a2, a3), mk(b1, b2, b3)
		return a.Dot(b) == b.Dot(a)
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Errorf("dot symmetry: %v", err)
	}
}

func BenchmarkSym33Inverse(b *testing.B) {
	m := identity.Add(outer(V3{1, 2, 3})).Add(outer(V3{-0.5, 1, 0.25}))
	var sink Sym33
	for i := 0; i < b.N; i++ {
		sink, _ = m.Inverse()
	}
	_ = sink
}

func BenchmarkV3Cross(b *testing.B) {
	u := V3{1, 2, 3}
	v := V3{4, 5, 6}
	var sink V3
	for i := 0; i < b.N; i++ {
		sink = u.Cross(v)
	}
	_ = sink
}

// Neg returns -v.
func (v V3) Neg() V3 { return V3{-v.X, -v.Y, -v.Z} }

// Scale returns s*m.
func (m Sym33) Scale(s float64) Sym33 {
	return Sym33{s * m.XX, s * m.XY, s * m.XZ, s * m.YY, s * m.YZ, s * m.ZZ}
}
