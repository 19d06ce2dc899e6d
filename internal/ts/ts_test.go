package ts

import (
	"math"
	"testing"

	"repro/internal/part"
	"repro/internal/vec"
)

func stateWith(h []float64, acc []vec.V3) *part.Set {
	ps := part.New(len(h))
	copy(ps.H, h)
	copy(ps.Acc, acc)
	for i := range ps.Mass {
		ps.Mass[i] = 1
	}
	return ps
}

func TestParticleDTCourant(t *testing.T) {
	c := NewController(Global)
	ps := stateWith([]float64{0.1}, []vec.V3{{}})
	dt := c.ParticleDT(ps, 0, 10)
	want := 0.3 * 2 * 0.1 / 10
	if math.Abs(dt-want) > 1e-15 {
		t.Fatalf("Courant dt = %g, want %g", dt, want)
	}
}

func TestParticleDTAcceleration(t *testing.T) {
	c := NewController(Global)
	ps := stateWith([]float64{0.1}, []vec.V3{{X: 100}})
	// vsig tiny so the acceleration criterion binds.
	dt := c.ParticleDT(ps, 0, 1e-9)
	want := 0.25 * math.Sqrt(0.1/100)
	if math.Abs(dt-want) > 1e-15 {
		t.Fatalf("accel dt = %g, want %g", dt, want)
	}
}

func TestGlobalTakesMinimum(t *testing.T) {
	c := NewController(Global)
	ps := stateWith([]float64{0.1, 0.01}, []vec.V3{{}, {}})
	dt := c.Step(ps, 5)
	want := 0.3 * 2 * 0.01 / 5
	if math.Abs(dt-want) > 1e-15 {
		t.Fatalf("global dt = %g, want %g", dt, want)
	}
}

func TestAdaptiveGrowthBounded(t *testing.T) {
	c := NewController(Adaptive)
	ps := stateWith([]float64{0.1}, []vec.V3{{}})
	dt1 := c.Step(ps, 100) // small step
	ps.H[0] = 10           // conditions relax enormously
	dt2 := c.Step(ps, 100)
	if dt2 > dt1*c.MaxGrowth*(1+1e-12) {
		t.Fatalf("adaptive dt grew %g -> %g, exceeding growth bound", dt1, dt2)
	}
	// Shrinking is immediate.
	ps.H[0] = 1e-4
	dt3 := c.Step(ps, 100)
	if dt3 > dt2 {
		t.Fatalf("adaptive dt failed to shrink: %g -> %g", dt2, dt3)
	}
}

func TestDegenerateStateFallback(t *testing.T) {
	c := NewController(Global)
	ps := stateWith([]float64{0.1}, []vec.V3{{}})
	dt := c.Step(ps, 0) // no signal speed, no acceleration
	if dt <= 0 || math.IsInf(dt, 0) {
		t.Fatalf("degenerate dt = %g", dt)
	}
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{Global, Adaptive, Mode(9)} {
		if m.String() == "" {
			t.Fatalf("empty name for mode %d", m)
		}
	}
}
