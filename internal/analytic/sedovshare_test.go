package analytic

import (
	"math"
	"sync"
	"testing"

	"repro/internal/vec"
)

// TestSedovProfileShared pins what sharing the gamma-only profile must not
// change: concurrent first calls all succeed (run under -race), a shared
// value evaluates bit for bit like one over a freshly integrated profile,
// the energy scales the shock radius and nothing else, and each gamma has
// its own profile.
func TestSedovProfileShared(t *testing.T) {
	// A gamma no other test asks for, so these are the first calls.
	const gFirst = 1.3
	var wg sync.WaitGroup
	got := make([]*Sedov, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := NewSedov(1+float64(i), 1, gFirst, vec.V3{}, 0)
			if err != nil {
				t.Errorf("concurrent NewSedov %d: %v", i, err)
				return
			}
			got[i] = s
		}(i)
	}
	wg.Wait()
	for i, s := range got {
		if s == nil || s.sedovProfile != got[0].sedovProfile {
			t.Fatalf("call %d did not get the one profile of gamma %g", i, gFirst)
		}
	}

	g := 5.0 / 3.0
	center := vec.V3{X: 0.5, Y: 0.5, Z: 0.5}
	shared, err := NewSedov(1, 1, g, center, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	fresh := &Sedov{E: 1, Rho0: 1, Gamma: g, Center: center, RValid: 0.5, sedovProfile: integrate(g)}
	if fresh.sedovProfile == shared.sedovProfile {
		t.Fatal("integrate returned the cached profile")
	}
	if math.Float64bits(fresh.Alpha) != math.Float64bits(shared.Alpha) {
		t.Errorf("Alpha: shared %v, fresh %v", shared.Alpha, fresh.Alpha)
	}
	for _, tm := range []float64{0, 1e-3, 0.02, 0.05, 0.3} {
		for _, r := range []float64{0, 1e-9, 1e-4, 0.01, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6} {
			pos := center.Add(vec.V3{X: r * 0.6, Y: r * 0.8})
			a, aok := shared.Eval(pos, tm)
			b, bok := fresh.Eval(pos, tm)
			if a != b || aok != bok {
				t.Errorf("Eval(r=%g, t=%g): shared %+v %v, fresh %+v %v", r, tm, a, aok, b, bok)
			}
		}
	}

	e2, err := NewSedov(2, 1, g, center, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if e2.sedovProfile != shared.sedovProfile {
		t.Error("E=1 and E=2 at one gamma do not share a profile")
	}
	if got, want := e2.ShockRadius(0.05)/shared.ShockRadius(0.05), math.Pow(2, 0.2); math.Abs(got-want) > 1e-15 {
		t.Errorf("ShockRadius ratio E=2/E=1 = %v, want 2^(1/5) = %v", got, want)
	}
	g14, err := NewSedov(1, 1, 1.4, center, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if g14.sedovProfile == shared.sedovProfile || g14.Alpha == shared.Alpha {
		t.Error("gamma 1.4 and 5/3 share a profile")
	}
}
