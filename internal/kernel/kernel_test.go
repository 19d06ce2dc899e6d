package kernel

import (
	"math"
	"testing"
	"testing/quick"
)

func allKernels() []Kernel {
	return []Kernel{
		NewM4(),
		NewWendlandC2(),
		NewWendlandC4(),
		NewWendlandC6(),
		NewSinc(3),
		NewSinc(5),
		NewSinc(6.5),
	}
}

// numInt3D integrates 4 pi Int_0^2h W(r,h) r^2 dr by Simpson quadrature.
func numInt3D(k Kernel, h float64) float64 {
	const n = 4096
	a, b := 0.0, SupportRadius*h
	step := (b - a) / n
	f := func(r float64) float64 { return k.W(r, h) * r * r }
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		r := a + float64(i)*step
		if i%2 == 1 {
			sum += 4 * f(r)
		} else {
			sum += 2 * f(r)
		}
	}
	return 4 * math.Pi * sum * step / 3
}

// TestNormalization verifies Int W dV = 1 for every kernel, the defining SPH
// partition-of-unity property, at several smoothing lengths.
func TestNormalization(t *testing.T) {
	for _, k := range allKernels() {
		for _, h := range []float64{0.1, 1, 3.7} {
			got := numInt3D(k, h)
			if math.Abs(got-1) > 1e-6 {
				t.Errorf("%s h=%g: Int W dV = %.9f, want 1", k.Name(), h, got)
			}
		}
	}
}

// TestCompactSupport verifies W and GradW vanish at and beyond 2h.
func TestCompactSupport(t *testing.T) {
	for _, k := range allKernels() {
		for _, q := range []float64{2, 2.0001, 3, 100} {
			if w := k.W(q*1.0, 1.0); w != 0 {
				t.Errorf("%s: W(%gh) = %g, want 0", k.Name(), q, w)
			}
			if g := k.GradW(q*1.0, 1.0); g != 0 {
				t.Errorf("%s: GradW(%gh) = %g, want 0", k.Name(), q, g)
			}
		}
	}
}

// TestPositivity verifies W >= 0 inside the support (all family members are
// non-negative kernels).
func TestPositivity(t *testing.T) {
	for _, k := range allKernels() {
		for q := 0.0; q < 2; q += 0.01 {
			if w := k.W(q, 1); w < 0 {
				t.Errorf("%s: W(q=%g) = %g < 0", k.Name(), q, w)
			}
		}
	}
}

// TestMonotoneDecreasing verifies the kernels decrease monotonically in r,
// i.e. GradW <= 0 everywhere inside the support.
func TestMonotoneDecreasing(t *testing.T) {
	for _, k := range allKernels() {
		for q := 0.001; q < 2; q += 0.01 {
			if g := k.GradW(q, 1); g > 1e-12 {
				t.Errorf("%s: GradW(q=%g) = %g > 0", k.Name(), q, g)
			}
		}
	}
}

// TestGradWMatchesFiniteDifference cross-checks the analytic radial
// derivative against a centered finite difference.
func TestGradWMatchesFiniteDifference(t *testing.T) {
	const eps = 1e-6
	for _, k := range allKernels() {
		for _, q := range []float64{0.1, 0.5, 0.99, 1.01, 1.5, 1.9} {
			h := 1.3
			r := q * h
			fd := (k.W(r+eps, h) - k.W(r-eps, h)) / (2 * eps)
			an := k.GradW(r, h)
			tol := 1e-5 * (1 + math.Abs(an))
			if math.Abs(fd-an) > tol {
				t.Errorf("%s q=%g: GradW analytic %g vs FD %g", k.Name(), q, an, fd)
			}
		}
	}
}

// TestScaling verifies the similarity property W(r,h) = h^-3 W(r/h, 1).
func TestScaling(t *testing.T) {
	for _, k := range allKernels() {
		for _, h := range []float64{0.25, 2, 10} {
			for _, q := range []float64{0.3, 1.1, 1.8} {
				w1 := k.W(q*h, h)
				w2 := k.W(q, 1) / (h * h * h)
				if math.Abs(w1-w2) > 1e-12*(1+math.Abs(w2)) {
					t.Errorf("%s: scaling violated at q=%g h=%g: %g vs %g", k.Name(), q, h, w1, w2)
				}
			}
		}
	}
}

// TestM4KnownValues pins the cubic spline against hand-computed values.
func TestM4KnownValues(t *testing.T) {
	k := NewM4()
	// W(0,1) = sigma * 1 = 1/pi.
	if got, want := k.W(0, 1), 1/math.Pi; math.Abs(got-want) > 1e-15 {
		t.Errorf("W(0,1) = %g, want %g", got, want)
	}
	// w(1) = 1 - 1.5 + 0.75 = 0.25 -> W = 0.25/pi.
	if got, want := k.W(1, 1), 0.25/math.Pi; math.Abs(got-want) > 1e-15 {
		t.Errorf("W(1,1) = %g, want %g", got, want)
	}
}

// TestWendlandC2KnownValues pins W(0,1) = 21/(16 pi).
func TestWendlandC2KnownValues(t *testing.T) {
	k := NewWendlandC2()
	if got, want := k.W(0, 1), 21/(16*math.Pi); math.Abs(got-want) > 1e-15 {
		t.Errorf("W(0,1) = %g, want %g", got, want)
	}
}

// TestSincCentralValue verifies S_n(0) = 1 so W(0,h) = sigma/h^3.
func TestSincCentralValue(t *testing.T) {
	k := NewSinc(5).(*base)
	if got := k.W(0, 2); math.Abs(got-k.sigma/8) > 1e-15 {
		t.Errorf("W(0,2) = %g, want sigma/8 = %g", got, k.sigma/8)
	}
}

// TestSincApproachesGaussianShape: higher exponents concentrate the kernel,
// so the central value must grow with n.
func TestSincExponentOrdering(t *testing.T) {
	w3 := NewSinc(3).W(0, 1)
	w5 := NewSinc(5).W(0, 1)
	w8 := NewSinc(8).W(0, 1)
	if !(w3 < w5 && w5 < w8) {
		t.Errorf("central values not increasing with n: %g, %g, %g", w3, w5, w8)
	}
}

func TestSincInvalidExponentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSinc(2) did not panic")
		}
	}()
	NewSinc(2)
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		k, err := New(name)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if k.Name() != name && name != "wendland" {
			t.Errorf("New(%q).Name() = %q", name, k.Name())
		}
	}
	if _, err := New("wendland"); err != nil {
		t.Errorf("alias wendland rejected: %v", err)
	}
	if _, err := New("sinc-4.5"); err != nil {
		t.Errorf("parametric sinc rejected: %v", err)
	}
	if _, err := New("nope"); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := New("sinc-1"); err == nil {
		t.Error("sinc-1 (non-normalizable) accepted")
	}
}

// Property: for every kernel, W is non-negative, finite, and zero outside
// support, for arbitrary positive r and h.
func TestKernelProperties(t *testing.T) {
	ks := allKernels()
	f := func(ri, hi uint32) bool {
		r := float64(ri%10000) / 1000.0 // [0, 10)
		h := 0.1 + float64(hi%1000)/500.0
		for _, k := range ks {
			w := k.W(r, h)
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return false
			}
			if r >= SupportRadius*h && w != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkM4(b *testing.B) {
	k := NewM4()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += k.W(0.7, 1.0) + k.GradW(0.7, 1.0)
	}
	_ = sink
}

func BenchmarkWendlandC6(b *testing.B) {
	k := NewWendlandC6()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += k.W(0.7, 1.0) + k.GradW(0.7, 1.0)
	}
	_ = sink
}

func BenchmarkSinc5(b *testing.B) {
	k := NewSinc(5)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += k.W(0.7, 1.0) + k.GradW(0.7, 1.0)
	}
	_ = sink
}
