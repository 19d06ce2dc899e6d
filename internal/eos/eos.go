// Package eos provides the equations of state used by the SPH-EXA test
// cases: an ideal gas (Evrard collapse, gamma = 5/3 per paper §5.1) and
// the weakly-compressible Tait equation customary for
// free-surface CFD tests such as the rotating square patch.
package eos

import (
	"fmt"
	"math"
)

// EOS maps a particle's thermodynamic state (density rho, specific internal
// energy u) to pressure and sound speed.
type EOS interface {
	// Name identifies the EOS in configuration and tables.
	Name() string
	// Pressure returns P(rho, u).
	Pressure(rho, u float64) float64
	// SoundSpeed returns c_s(rho, u).
	SoundSpeed(rho, u float64) float64
}

// IdealGas is P = (gamma-1) rho u, the astrophysics standard. The Evrard
// collapse uses gamma = 5/3 (paper §5.1).
type IdealGas struct {
	Gamma float64
}

// NewIdealGas returns an ideal-gas EOS with adiabatic index gamma.
// gamma must exceed 1.
func NewIdealGas(gamma float64) IdealGas {
	if gamma <= 1 {
		panic(fmt.Sprintf("eos: ideal gas gamma %g <= 1", gamma))
	}
	return IdealGas{Gamma: gamma}
}

// Name implements EOS.
func (g IdealGas) Name() string { return fmt.Sprintf("ideal-%.4g", g.Gamma) }

// Pressure implements EOS.
func (g IdealGas) Pressure(rho, u float64) float64 {
	return (g.Gamma - 1) * rho * u
}

// SoundSpeed implements EOS: c = sqrt(gamma (gamma-1) u).
func (g IdealGas) SoundSpeed(rho, u float64) float64 {
	if u <= 0 {
		return 0
	}
	return math.Sqrt(g.Gamma * (g.Gamma - 1) * u)
}

// Tait is the weakly-compressible equation of state
//
//	P = B [ (rho/rho0)^gamma - 1 ],   B = rho0 c0^2 / gamma
//
// used by free-surface SPH codes (SPH-flow) for tests like the rotating
// square patch, where the physical fluid is incompressible and c0 is chosen
// ~10x the maximum flow speed to cap density variations near 1%.
type Tait struct {
	Rho0  float64 // reference density
	C0    float64 // sound speed at the reference density
	Gamma float64 // stiffness exponent, customarily 7
	b     float64
}

// NewTait returns a Tait EOS. Standard CFD usage: gamma = 7,
// c0 = 10 * expected max velocity.
func NewTait(rho0, c0, gamma float64) Tait {
	if rho0 <= 0 || c0 <= 0 || gamma <= 0 {
		panic(fmt.Sprintf("eos: invalid Tait parameters rho0=%g c0=%g gamma=%g", rho0, c0, gamma))
	}
	return Tait{Rho0: rho0, C0: c0, Gamma: gamma, b: rho0 * c0 * c0 / gamma}
}

// Name implements EOS.
func (t Tait) Name() string { return fmt.Sprintf("tait-%.4g", t.Gamma) }

// Pressure implements EOS. Negative pressures are allowed: the square-patch
// test depends on the tensile (negative-pressure) regions that trigger the
// instability the paper discusses (§5.1).
func (t Tait) Pressure(rho, u float64) float64 {
	return t.b * (math.Pow(rho/t.Rho0, t.Gamma) - 1)
}

// SoundSpeed implements EOS: c = c0 (rho/rho0)^((gamma-1)/2).
func (t Tait) SoundSpeed(rho, u float64) float64 {
	if rho <= 0 {
		return t.C0
	}
	return t.C0 * math.Pow(rho/t.Rho0, (t.Gamma-1)/2)
}
