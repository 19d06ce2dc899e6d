package eos

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIdealGasKnown(t *testing.T) {
	g := NewIdealGas(5.0 / 3.0)
	// P = (gamma-1) rho u
	if got, want := g.Pressure(2, 3), (5.0/3.0-1)*2*3; math.Abs(got-want) > 1e-14 {
		t.Errorf("Pressure = %g, want %g", got, want)
	}
	// c^2 = gamma (gamma-1) u = gamma P / rho
	p := g.Pressure(2, 3)
	c := g.SoundSpeed(2, 3)
	if got, want := c*c, 5.0/3.0*p/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("c^2 = %g, want gamma P/rho = %g", got, want)
	}
}

func TestIdealGasZeroEnergy(t *testing.T) {
	g := NewIdealGas(1.4)
	if got := g.SoundSpeed(1, 0); got != 0 {
		t.Errorf("SoundSpeed(u=0) = %g, want 0", got)
	}
	if got := g.SoundSpeed(1, -1); got != 0 {
		t.Errorf("SoundSpeed(u<0) = %g, want 0", got)
	}
	if got := g.Pressure(1, 0); got != 0 {
		t.Errorf("Pressure(u=0) = %g, want 0", got)
	}
}

func TestIdealGasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("gamma=1 did not panic")
		}
	}()
	NewIdealGas(1)
}

func TestTaitReferenceState(t *testing.T) {
	ta := NewTait(1000, 50, 7)
	// At the reference density, pressure is zero.
	if got := ta.Pressure(1000, 0); math.Abs(got) > 1e-9 {
		t.Errorf("P(rho0) = %g, want 0", got)
	}
	// At the reference density, sound speed is c0.
	if got := ta.SoundSpeed(1000, 0); math.Abs(got-50) > 1e-12 {
		t.Errorf("c(rho0) = %g, want 50", got)
	}
}

func TestTaitCompressionSign(t *testing.T) {
	ta := NewTait(1, 10, 7)
	if p := ta.Pressure(1.01, 0); p <= 0 {
		t.Errorf("compressed Tait P = %g, want > 0", p)
	}
	// Tensile regime: rarefied fluid has negative pressure — this drives the
	// square-patch tensile instability the paper discusses.
	if p := ta.Pressure(0.99, 0); p >= 0 {
		t.Errorf("rarefied Tait P = %g, want < 0", p)
	}
}

func TestTaitSoundSpeedMonotone(t *testing.T) {
	ta := NewTait(1, 10, 7)
	prev := 0.0
	for rho := 0.5; rho < 2; rho += 0.1 {
		c := ta.SoundSpeed(rho, 0)
		if c <= prev {
			t.Fatalf("SoundSpeed not increasing at rho=%g: %g <= %g", rho, c, prev)
		}
		prev = c
	}
	if got := ta.SoundSpeed(-1, 0); got != 10 {
		t.Errorf("SoundSpeed(rho<0) = %g, want fallback c0", got)
	}
}

func TestTaitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid Tait did not panic")
		}
	}()
	NewTait(-1, 10, 7)
}

func TestNames(t *testing.T) {
	cases := []struct {
		e    EOS
		want string
	}{
		{NewIdealGas(5.0 / 3.0), "ideal-1.667"},
		{NewTait(1, 10, 7), "tait-7"},
	}
	for _, c := range cases {
		if got := c.e.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

// Property: ideal gas pressure is linear in both rho and u.
func TestIdealGasLinearity(t *testing.T) {
	g := NewIdealGas(1.4)
	f := func(r, u uint16) bool {
		rho := 0.1 + float64(r)/1000
		uu := 0.1 + float64(u)/1000
		p1 := g.Pressure(2*rho, uu)
		p2 := 2 * g.Pressure(rho, uu)
		p3 := g.Pressure(rho, 2*uu)
		return math.Abs(p1-p2) < 1e-12*p2 && math.Abs(p3-p2) < 1e-12*p2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Tait pressure is monotone in density.
func TestTaitMonotone(t *testing.T) {
	ta := NewTait(1, 10, 7)
	f := func(a, b uint16) bool {
		r1 := 0.5 + float64(a)/65535
		r2 := 0.5 + float64(b)/65535
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		return ta.Pressure(r1, 0) <= ta.Pressure(r2, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
