// Package ts implements time-step control for the mini-app. Paper Table 2
// lists three modes for SPH-EXA: equal (global) steps as in SPHYNX, variable
// individual (per-particle, power-of-two block) steps as in ChaNGa, and
// adaptive stepping as in SPH-flow. The engine advances every particle by
// one step, so this package provides the two global modes; per-particle
// rungs would need an integrator that sub-steps.
package ts

import (
	"fmt"
	"math"

	"repro/internal/part"
)

// Mode selects the time-stepping strategy.
type Mode int

const (
	// Global advances every particle with the minimum stable step.
	Global Mode = iota
	// Adaptive advances globally but lets the step grow and shrink smoothly
	// (bounded rate), the strategy of CFD codes like SPH-flow.
	Adaptive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Global:
		return "global"
	case Adaptive:
		return "adaptive"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Controller computes stable time steps from particle state.
type Controller struct {
	Mode Mode
	// Courant is the CFL constant (customarily 0.3).
	Courant float64
	// AccelFactor scales the acceleration criterion sqrt(h/|a|)
	// (customarily 0.25).
	AccelFactor float64
	// MaxGrowth bounds dt growth per step in Adaptive mode (e.g. 1.1).
	MaxGrowth float64

	prev float64
}

// NewController returns a controller with standard constants.
func NewController(mode Mode) *Controller {
	return &Controller{
		Mode:        mode,
		Courant:     0.3,
		AccelFactor: 0.25,
		MaxGrowth:   1.1,
	}
}

// ParticleDT returns the stable step for particle i given the global maximum
// signal speed encountered this step: the minimum of the Courant condition
// C*2h/vsig and the acceleration condition F*sqrt(h/|a|).
func (c *Controller) ParticleDT(ps *part.Set, i int, vsig float64) float64 {
	dt := math.Inf(1)
	if vsig > 0 {
		dt = c.Courant * 2 * ps.H[i] / vsig
	}
	if a := ps.Acc[i].Norm(); a > 0 {
		if dta := c.AccelFactor * math.Sqrt(ps.H[i]/a); dta < dt {
			dt = dta
		}
	}
	return dt
}

// Step computes the next time step of the whole system (step 5 of
// Algorithm 1): the smallest particle step, which Adaptive mode lets grow
// by at most MaxGrowth over the previous one. vsig is the maximum signal
// speed from the force evaluation.
func (c *Controller) Step(ps *part.Set, vsig float64) float64 {
	dt := math.Inf(1)
	for i := 0; i < ps.NLocal; i++ {
		// Not the min builtin: a NaN particle step must not become the step.
		if pdt := c.ParticleDT(ps, i, vsig); pdt < dt {
			dt = pdt
		}
	}
	if math.IsInf(dt, 1) || dt <= 0 {
		dt = 1e-6 // degenerate state: fall back to a tiny positive step
	}
	if c.Mode == Adaptive && c.prev > 0 && dt > c.prev*c.MaxGrowth {
		dt = c.prev * c.MaxGrowth
	}
	c.prev = dt
	return dt
}
