// Package kernel implements the SPH interpolation kernels selected for the
// SPH-EXA mini-app (paper Table 2): the sinc family used by SPHYNX
// (Cabezón, García-Senz & Relaño 2008), the M4 cubic spline, and the
// Wendland C2/C4/C6 family used by ChaNGa and SPH-flow.
//
// All kernels share a compact support of 2h: W(r,h) = 0 for r >= 2h. The
// dimensionless coordinate is q = r/h in [0, 2]. A kernel is evaluated as
//
//	W(r,h)      = sigma/h^3 * w(q)
//	dW/dr(r,h)  = sigma/h^4 * w'(q)
//
// where sigma is the 3D normalization constant, determined analytically for
// the polynomial kernels and by numerical quadrature for the sinc family.
package kernel

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// SupportRadius is the kernel support in units of the smoothing length h.
// Every kernel in the mini-app family uses compact support 2h, which keeps
// neighbor search geometry uniform across interchangeable kernels.
const SupportRadius = 2.0

// Kernel is an SPH interpolation kernel in three dimensions.
//
// Implementations must be safe for concurrent use: evaluation is pure and
// all normalization state is computed at construction.
type Kernel interface {
	// Name identifies the kernel in configuration files and tables.
	Name() string
	// W evaluates the kernel at distance r for smoothing length h.
	W(r, h float64) float64
	// GradW evaluates dW/dr. The vector gradient is GradW(r,h) * rhat.
	GradW(r, h float64) float64
}

// base implements Kernel on top of a dimensionless profile w(q), w'(q). W
// and GradW evaluate the profile from its tabulation; the analytic w and dw
// are the table's source.
type base struct {
	nm    string
	sigma float64 // 3D normalization
	w     func(q float64) float64
	dw    func(q float64) float64
	tab   *table
}

// table is the piecewise-cubic Hermite interpolant of a profile on
// [0, SupportRadius]: on interval k, w(q) = c0 + u(c1 + u(c2 + u c3)) with
// u = q*tableScale - k in [0, 1). It matches w and w' at every node, q = 1
// (where the M4 spline changes piece) among them, and its derivative serves
// as w'. At this spacing it is within 1e-12 of every profile in the family.
type table [tableIntervals][4]float64

const (
	tableIntervals = 2048
	tableScale     = tableIntervals / SupportRadius
)

// at returns the coefficients of the interval holding q in [0, 2) and q's
// position u in it.
func (t *table) at(q float64) (c *[4]float64, u float64) {
	u = q * tableScale
	k := int(u)
	return &t[k], u - float64(k)
}

func newTable(w, dw func(float64) float64) *table {
	t := new(table)
	for k := range t {
		q0, q1 := float64(k)/tableScale, float64(k+1)/tableScale
		w0, w1 := w(q0), w(q1)
		m0, m1 := dw(q0)/tableScale, dw(q1)/tableScale
		t[k] = [4]float64{w0, m0, 3*(w1-w0) - 2*m0 - m1, 2*(w0-w1) + m0 + m1}
	}
	return t
}

// built holds the kernels constructed so far by name, so that a kernel's
// normalization and table are computed once per process, not once per job.
var built sync.Map // map[string]*base

// build returns the kernel called nm with profile w, dw; sigma 0 asks for
// numerical normalization.
func build(nm string, sigma float64, w, dw func(float64) float64) Kernel {
	if k, ok := built.Load(nm); ok {
		return k.(*base)
	}
	if sigma == 0 {
		sigma = normalize3D(w)
	}
	k, _ := built.LoadOrStore(nm, &base{nm, sigma, w, dw, newTable(w, dw)})
	return k.(*base)
}

func (k *base) Name() string { return k.nm }

func (k *base) W(r, h float64) float64 {
	if h <= 0 {
		return 0
	}
	return Profile{k}.Norm(h) * Profile{k}.W(r/h)
}

func (k *base) GradW(r, h float64) float64 {
	if h <= 0 {
		return 0
	}
	return Profile{k}.GradNorm(h) * Profile{k}.DW(r/h)
}

// Profile is the concrete evaluator behind a kernel of this package: its
// normalization and dimensionless profile, W(r,h) = Norm(h) W(r/h) and
// dW/dr(r,h) = GradNorm(h) DW(r/h). Pair loops fetch it once with ProfileOf
// and pay no interface call per pair.
type Profile struct{ k *base }

// ProfileOf returns the profile of k, which must be a kernel constructed by
// this package.
func ProfileOf(k Kernel) Profile { return Profile{k.(*base)} }

// W returns w(q), zero outside the support [0, 2) and for a non-finite q.
func (p Profile) W(q float64) float64 {
	if !(q >= 0 && q < SupportRadius) {
		return 0
	}
	c, u := p.k.tab.at(q)
	return c[0] + u*(c[1]+u*(c[2]+u*c[3]))
}

// DW returns w'(q), zero outside the support [0, 2) and for a non-finite q.
func (p Profile) DW(q float64) float64 {
	if !(q >= 0 && q < SupportRadius) {
		return 0
	}
	c, u := p.k.tab.at(q)
	return (c[1] + u*(2*c[2]+3*u*c[3])) * tableScale
}

// Norm returns sigma/h^3, the factor of w(q) in W(r,h).
func (p Profile) Norm(h float64) float64 { return p.k.sigma / (h * h * h) }

// GradNorm returns sigma/h^4, the factor of w'(q) in dW/dr(r,h).
func (p Profile) GradNorm(h float64) float64 {
	h2 := h * h
	return p.k.sigma / (h2 * h2)
}

// normalize3D computes sigma such that 4*pi*sigma*Int_0^2 w(q) q^2 dq = 1
// using composite Simpson quadrature. The polynomial kernels use exact
// constants instead; this is for the sinc family, whose normalization has no
// closed form.
func normalize3D(w func(float64) float64) float64 {
	const n = 4096 // even
	a, b := 0.0, SupportRadius
	hstep := (b - a) / n
	sum := 0.0
	f := func(q float64) float64 { return w(q) * q * q }
	sum += f(a) + f(b)
	for i := 1; i < n; i++ {
		q := a + float64(i)*hstep
		if i%2 == 1 {
			sum += 4 * f(q)
		} else {
			sum += 2 * f(q)
		}
	}
	integral := sum * hstep / 3
	return 1 / (4 * math.Pi * integral)
}

// --- M4 cubic spline -------------------------------------------------------

// NewM4 returns the classic M4 cubic-spline kernel (Monaghan & Lattanzio
// 1985), listed for ChaNGa in paper Table 1 and selected for the mini-app in
// Table 2. sigma = 1/pi in 3D for the support-2h parameterization.
func NewM4() Kernel {
	return build("m4", 1/math.Pi,
		func(q float64) float64 {
			switch {
			case q < 1:
				return 1 - 1.5*q*q + 0.75*q*q*q
			case q < 2:
				d := 2 - q
				return 0.25 * d * d * d
			}
			return 0
		},
		func(q float64) float64 {
			switch {
			case q < 1:
				return -3*q + 2.25*q*q
			case q < 2:
				d := 2 - q
				return -0.75 * d * d
			}
			return 0
		})
}

// --- Wendland family -------------------------------------------------------

// NewWendlandC2 returns the Wendland C2 kernel (Wendland 1995) in 3D,
// sigma = 21/(16 pi): w(q) = (1-q/2)^4 (2q+1).
func NewWendlandC2() Kernel {
	return build("wendland-c2", 21/(16*math.Pi),
		func(q float64) float64 {
			t := 1 - 0.5*q
			t2 := t * t
			return t2 * t2 * (2*q + 1)
		},
		func(q float64) float64 {
			t := 1 - 0.5*q
			// d/dq [(1-q/2)^4 (2q+1)] = (1-q/2)^3 (-5q)
			return t * t * t * (-5 * q)
		})
}

// NewWendlandC4 returns the Wendland C4 kernel in 3D, sigma = 495/(256 pi):
// w(q) = (1-q/2)^6 (35/12 q^2 + 3q + 1).
func NewWendlandC4() Kernel {
	return build("wendland-c4", 495/(256*math.Pi),
		func(q float64) float64 {
			t := 1 - 0.5*q
			t2 := t * t
			t6 := t2 * t2 * t2
			return t6 * (35.0/12.0*q*q + 3*q + 1)
		},
		func(q float64) float64 {
			t := 1 - 0.5*q
			t2 := t * t
			t5 := t2 * t2 * t
			// d/dq = (1-q/2)^5 * (-q) * (35q + 18) * 7/12... derived below.
			// w  = t^6 P, P = 35/12 q^2 + 3 q + 1
			// w' = -3 t^5 P + t^6 (35/6 q + 3)
			p := 35.0/12.0*q*q + 3*q + 1
			return t5 * (-3*p + t*(35.0/6.0*q+3))
		})
}

// NewWendlandC6 returns the Wendland C6 kernel in 3D, sigma = 1365/(512 pi):
// w(q) = (1-q/2)^8 (4q^3 + 25/4 q^2 + 4q + 1).
func NewWendlandC6() Kernel {
	return build("wendland-c6", 1365/(512*math.Pi),
		func(q float64) float64 {
			t := 1 - 0.5*q
			t2 := t * t
			t4 := t2 * t2
			t8 := t4 * t4
			return t8 * (4*q*q*q + 6.25*q*q + 4*q + 1)
		},
		func(q float64) float64 {
			t := 1 - 0.5*q
			t2 := t * t
			t4 := t2 * t2
			t7 := t4 * t2 * t
			p := 4*q*q*q + 6.25*q*q + 4*q + 1
			return t7 * (-4*p + t*(12*q*q+12.5*q+4))
		})
}

// --- Sinc family -----------------------------------------------------------

// sincProfile returns the dimensionless sinc kernel profile of exponent n:
// S_n(q) = [sin(pi q / 2) / (pi q / 2)]^n, defined on [0, 2].
func sincProfile(n float64) (w, dw func(float64) float64) {
	w = func(q float64) float64 {
		if q <= 0 {
			return 1
		}
		x := math.Pi * q / 2
		s := math.Sin(x) / x
		if s <= 0 {
			return 0
		}
		return math.Pow(s, n)
	}
	dw = func(q float64) float64 {
		if q <= 0 {
			return 0
		}
		x := math.Pi * q / 2
		s := math.Sin(x) / x
		if s <= 0 {
			return 0
		}
		// d/dq S^n = n S^(n-1) dS/dq, dS/dq = (pi/2)(cos x / x - sin x / x^2)
		ds := (math.Pi / 2) * (math.Cos(x)/x - math.Sin(x)/(x*x))
		return n * math.Pow(s, n-1) * ds
	}
	return w, dw
}

// NewSinc returns the sinc kernel of exponent n (Cabezón et al. 2008), the
// default SPHYNX kernel (paper Table 1; SPHYNX production runs use n = 5).
// The normalization constant is computed numerically, once per exponent.
// n must be > 2 for the 3D integral to be finite near q = 2.
func NewSinc(n float64) Kernel {
	if n <= 2 {
		panic(fmt.Sprintf("kernel: sinc exponent %g <= 2 is not normalizable in 3D", n))
	}
	w, dw := sincProfile(n)
	return build(fmt.Sprintf("sinc-%g", n), 0, w, dw)
}

// --- Registry ---------------------------------------------------------------

// New constructs a kernel by name: "m4", "wendland-c2", "wendland-c4",
// "wendland-c6", "sinc-5" (any "sinc-<n>"). It returns an error for unknown
// names so CLI tools can report bad -kernel flags cleanly.
func New(name string) (Kernel, error) {
	switch name {
	case "m4":
		return NewM4(), nil
	case "wendland-c2", "wendland":
		return NewWendlandC2(), nil
	case "wendland-c4":
		return NewWendlandC4(), nil
	case "wendland-c6":
		return NewWendlandC6(), nil
	}
	var n float64
	if _, err := fmt.Sscanf(name, "sinc-%g", &n); err == nil && n > 2 {
		return NewSinc(n), nil
	}
	return nil, fmt.Errorf("kernel: unknown kernel %q (have %v)", name, Names())
}

// Names lists the fixed kernel names accepted by New, sorted.
func Names() []string {
	names := []string{"m4", "wendland-c2", "wendland-c4", "wendland-c6", "sinc-5", "sinc-6"}
	sort.Strings(names)
	return names
}
