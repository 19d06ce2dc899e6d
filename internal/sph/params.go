// Package sph implements the smoothed-particle-hydrodynamics kernels of the
// mini-app (step 3 of the paper's Algorithm 1): neighbor finding with
// smoothing-length adaptation, density with standard or generalized volume
// elements, gradients via kernel derivatives or the integral approach (IAD),
// and the momentum and energy equations with Monaghan-Gingold artificial
// viscosity. The feature set is exactly the paper's Table 2 column list.
package sph

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/eos"
	"repro/internal/kernel"
	"repro/internal/sfc"
	"repro/internal/tree"
)

// GradientMode selects how kernel gradients enter the momentum and energy
// equations (paper Tables 1-2: SPHYNX uses IAD, ChaNGa and SPH-flow use
// plain kernel derivatives).
type GradientMode int

const (
	// KernelDerivatives uses grad W directly.
	KernelDerivatives GradientMode = iota
	// IAD uses the integral approach to derivatives (García-Senz et al.
	// 2012): per-particle inverse moment matrices replace grad W, reducing
	// gradient error to second order for disordered particle distributions.
	IAD
)

// String implements fmt.Stringer.
func (g GradientMode) String() string {
	if g == IAD {
		return "iad"
	}
	return "kernel-derivatives"
}

// VolumeMode selects the volume element estimator (paper Tables 1-2:
// SPHYNX's "generalized" volume elements vs the standard m/rho).
type VolumeMode int

const (
	// StandardVolume is V_i = m_i / rho_i.
	StandardVolume VolumeMode = iota
	// GeneralizedVolume is SPHYNX's estimator V_i = X_i / sum_j X_j W_ij
	// with X = m/rho, which reduces tensile noise at density discontinuities
	// (Cabezón et al. 2017).
	GeneralizedVolume
)

// String implements fmt.Stringer.
func (v VolumeMode) String() string {
	if v == GeneralizedVolume {
		return "generalized"
	}
	return "standard"
}

// Params bundles all physics and numerics choices for the SPH kernels.
type Params struct {
	Kernel kernel.Kernel
	EOS    eos.EOS

	// NNeighbors is the target neighbor count; the smoothing length is
	// iterated until each particle sees approximately this many (paper §3:
	// "~10^2 neighbors per particle").
	NNeighbors int

	Gradients GradientMode
	Volumes   VolumeMode

	// AlphaVisc and BetaVisc are the Monaghan-Gingold artificial viscosity
	// coefficients (customarily 1 and 2).
	AlphaVisc, BetaVisc float64
	// EtaVisc regularizes the viscous mu term; the customary 0.01 enters as
	// eta^2 h^2.
	EtaVisc float64

	PBC tree.PBC
	// Box fixes the tree quantization cube; mandatory when PBC wraps an
	// axis. Zero means fit to the particles.
	Box sfc.Box

	// LeafCap and Workers tune the octree and loop parallelism.
	LeafCap int
	Workers int

	// HMaxIter bounds smoothing-length iterations per step.
	HMaxIter int
	// HTolerance is the acceptable relative neighbor-count deviation.
	HTolerance float64
}

// workers resolves Workers: GOMAXPROCS when unset.
func (p *Params) workers() int {
	if p.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Workers
}

// Defaults fills unset numeric fields with standard values and validates the
// configuration.
func (p *Params) Defaults() error {
	if p.Kernel == nil {
		return fmt.Errorf("sph: Params.Kernel is nil")
	}
	if p.EOS == nil {
		return fmt.Errorf("sph: Params.EOS is nil")
	}
	if p.NNeighbors == 0 {
		p.NNeighbors = 100
	}
	if p.NNeighbors < 4 {
		return fmt.Errorf("sph: NNeighbors %d < 4", p.NNeighbors)
	}
	if p.AlphaVisc == 0 {
		p.AlphaVisc = 1
	}
	if p.BetaVisc == 0 {
		p.BetaVisc = 2
	}
	if p.EtaVisc == 0 {
		p.EtaVisc = 0.01
	}
	if p.HMaxIter == 0 {
		p.HMaxIter = 10
	}
	if p.HTolerance == 0 {
		p.HTolerance = 0.05
	}
	return nil
}

// minImage is tree.PBC.Wrap unpacked once per pass, so that a pair loop
// takes the minimum image inline, bit for bit: d - l Round(d/l) on an axis
// that wraps (l > 0) once |d| reaches half its period, and otherwise d plus
// the axis' zero: +0 where it wraps (Wrap's d + 0, which turns -0 into +0)
// and -0 where it does not, which leaves every d as it is. An axis that does
// not wrap has a NaN half-period, which no d reaches.
type minImage struct{ x, y, z axisImage }

type axisImage struct{ l, half, zero float64 }

// image is d's minimum image on the axis. Round(q) is taken as Trunc(q)
// moved one away from zero when the fraction reaches one half: the same
// bits for every q (the fraction q - Trunc(q) is exact, and a NaN or
// infinite q keeps Trunc's result), at a cost that lets image inline.
// A NaN d skips the branch and stays the NaN the formula would give.
func (a axisImage) image(d float64) float64 {
	if d += a.zero; d >= a.half || d <= -a.half {
		q := d / a.l
		r := math.Trunc(q)
		if f := q - r; f >= 0.5 {
			r++
		} else if f <= -0.5 {
			r--
		}
		return d - a.l*r
	}
	return d
}

func newMinImage(p tree.PBC) minImage {
	axis := func(wraps bool, l float64) axisImage {
		if wraps && l > 0 {
			return axisImage{l, 0.5 * l, 0}
		}
		return axisImage{half: math.NaN(), zero: math.Copysign(0, -1)}
	}
	return minImage{axis(p.X, p.L.X), axis(p.Y, p.L.Y), axis(p.Z, p.L.Z)}
}
