// Package ts implements time-step control for the mini-app. Paper Table 2
// lists three modes for SPH-EXA: equal (global) steps as in SPHYNX, variable
// individual (per-particle, power-of-two block) steps as in ChaNGa, and
// adaptive stepping as in SPH-flow.
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
	// Individual assigns each particle a power-of-two subdivision (rung) of
	// the base step and advances only active rungs each sub-step.
	Individual
	// Adaptive advances globally but lets the step grow and shrink smoothly
	// (bounded rate), the strategy of CFD codes like SPH-flow.
	Adaptive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Global:
		return "global"
	case Individual:
		return "individual"
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
	// MaxRung bounds the individual-step hierarchy depth (2^MaxRung
	// subdivisions of the base step).
	MaxRung int8

	prev float64
}

// NewController returns a controller with standard constants.
func NewController(mode Mode) *Controller {
	return &Controller{
		Mode:        mode,
		Courant:     0.3,
		AccelFactor: 0.25,
		MaxGrowth:   1.1,
		MaxRung:     6,
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

// Step computes the next base time step and, in Individual mode, assigns
// per-particle rungs into ps.Bin (step 5 of Algorithm 1).
// vsig is the maximum signal speed from the force evaluation.
// It returns the base step (the step the whole system will be advanced by).
func (c *Controller) Step(ps *part.Set, vsig float64) float64 {
	minDT := math.Inf(1)
	maxDT := 0.0
	n := ps.NLocal
	dts := make([]float64, n)
	for i := 0; i < n; i++ {
		dt := c.ParticleDT(ps, i, vsig)
		dts[i] = dt
		if dt < minDT {
			minDT = dt
		}
		if dt > maxDT && !math.IsInf(dt, 1) {
			maxDT = dt
		}
	}
	if math.IsInf(minDT, 1) || minDT <= 0 {
		minDT = 1e-6 // degenerate state: fall back to a tiny positive step
	}

	switch c.Mode {
	case Individual:
		// The base step is the largest particle step, clamped so the hierarchy
		// depth does not exceed MaxRung; each particle gets the deepest rung
		// whose sub-step is <= its stable step.
		base := maxDT
		if base <= 0 {
			base = minDT
		}
		limit := base / float64(int64(1)<<uint(c.MaxRung))
		if minDT < limit {
			base = minDT * float64(int64(1)<<uint(c.MaxRung))
		}
		for i := 0; i < n; i++ {
			rung := int8(0)
			sub := base
			for sub > dts[i] && rung < c.MaxRung {
				sub /= 2
				rung++
			}
			ps.Bin[i] = rung
		}
		c.prev = base
		return base
	case Adaptive:
		dt := minDT
		if c.prev > 0 && dt > c.prev*c.MaxGrowth {
			dt = c.prev * c.MaxGrowth
		}
		c.prev = dt
		return dt
	default: // Global
		c.prev = minDT
		return minDT
	}
}
