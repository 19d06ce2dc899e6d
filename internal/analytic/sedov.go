package analytic

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/vec"
)

// Sedov is the exact Sedov-Taylor self-similar point-blast solution
// (Sedov 1959; Landau & Lifshitz §106) in spherical geometry for a uniform
// cold ambient medium: shock radius R(t) = (E t^2 / (alpha rho0))^(1/5)
// with the interior profile obtained by integrating the self-similar ODE
// system from the strong-shock boundary conditions inward. The energy
// integral alpha is computed from the same profile, so the solution is
// exact to integration tolerance for any gamma.
type Sedov struct {
	// E is the blast energy, Rho0 the ambient density, Gamma the index.
	E, Rho0, Gamma float64
	// Center is the deposition point.
	Center vec.V3
	// RValid invalidates the solution once the shock radius reaches it
	// (e.g. half the periodic box, where images start to interfere);
	// 0 disables the bound.
	RValid float64

	// The gamma-only part, Alpha included, shared with every other Sedov of
	// this gamma.
	*sedovProfile
	pAmbient float64
}

// sedovProfile is the part of the solution that depends on gamma alone: the
// similarity profile sampled uniformly in x = ln(xi), descending from x=0
// (the shock, xi=1) in steps of -dx, and its energy integral. It is built
// once per gamma per process and never written afterwards, so every Sedov
// of that gamma shares one.
type sedovProfile struct {
	gamma float64
	// Alpha is the computed energy integral: E = Alpha * rho0 * R^5 / t^2.
	Alpha      float64
	dx         float64
	v, lg, lz  []float64 // V, ln G, ln Z at x_i = -i*dx
	dvE        [3]float64
	xMin       float64
	selfSimJ   int
	selfSimDel float64
}

// sedovProfiles holds the profile of every gamma asked for so far. The
// registered scenarios pass 5/3 only, so it holds one entry.
var (
	sedovMu       sync.Mutex
	sedovProfiles = map[float64]*sedovProfile{} // guarded by sedovMu
)

// profileFor returns the shared profile for gamma, integrating it on the
// first request.
func profileFor(gamma float64) *sedovProfile {
	sedovMu.Lock()
	defer sedovMu.Unlock()
	p := sedovProfiles[gamma]
	if p == nil {
		p = integrate(gamma)
		sedovProfiles[gamma] = p
	}
	return p
}

const (
	sedovSteps = 12000
	sedovDX    = 1e-3
)

// NewSedov returns the solution for the given blast over the self-similar
// profile of its gamma.
func NewSedov(e, rho0, gamma float64, center vec.V3, rValid float64) (*Sedov, error) {
	if e <= 0 || rho0 <= 0 {
		return nil, fmt.Errorf("analytic: sedov requires positive energy and density (E=%g rho0=%g)", e, rho0)
	}
	if !(gamma > 1) { // NaN included: it would never find its own cache entry
		return nil, fmt.Errorf("analytic: sedov gamma %g <= 1", gamma)
	}
	return &Sedov{E: e, Rho0: rho0, Gamma: gamma, Center: center, RValid: rValid, sedovProfile: profileFor(gamma)}, nil
}

// derivs evaluates the self-similar ODE right-hand side at state
// y = (V, ln G, ln Z), with x = ln xi the independent variable.
func (s *sedovProfile) derivs(y [3]float64) [3]float64 {
	g := s.gamma
	j := float64(s.selfSimJ)
	del := s.selfSimDel
	V := y[0]
	Z := math.Exp(y[2])

	num := V*(1/del-V)*(V-1) + j*Z*V - (2*Z/g)*(1/del-1)
	dV := num / ((V-1)*(V-1) - Z)
	dG := -(dV + j*V) / (V - 1)
	dZ := (2/del-2*V)/(V-1) + (g-1)*dG
	return [3]float64{dV, dG, dZ}
}

// integrate runs RK4 from the shock (x=0) inward and computes alpha from
// the energy integral of the resulting profile.
func integrate(g float64) *sedovProfile {
	s := &sedovProfile{gamma: g, selfSimJ: 3, dx: sedovDX}
	s.selfSimDel = 2.0 / float64(s.selfSimJ+2)
	// Strong-shock boundary conditions at xi = 1.
	y := [3]float64{
		2 / (g + 1),
		math.Log((g + 1) / (g - 1)),
		math.Log(2 * g * (g - 1) / ((g + 1) * (g + 1))),
	}
	s.v = make([]float64, sedovSteps+1)
	s.lg = make([]float64, sedovSteps+1)
	s.lz = make([]float64, sedovSteps+1)
	s.v[0], s.lg[0], s.lz[0] = y[0], y[1], y[2]

	h := -s.dx
	add := func(a [3]float64, k [3]float64, c float64) [3]float64 {
		return [3]float64{a[0] + c*k[0], a[1] + c*k[1], a[2] + c*k[2]}
	}
	for i := 1; i <= sedovSteps; i++ {
		k1 := s.derivs(y)
		k2 := s.derivs(add(y, k1, h/2))
		k3 := s.derivs(add(y, k2, h/2))
		k4 := s.derivs(add(y, k3, h))
		for c := 0; c < 3; c++ {
			y[c] += h / 6 * (k1[c] + 2*k2[c] + 2*k3[c] + k4[c])
		}
		s.v[i], s.lg[i], s.lz[i] = y[0], y[1], y[2]
	}
	s.xMin = -float64(sedovSteps) * s.dx
	s.dvE = s.derivs(y) // asymptotic slopes for xi below the table

	// Energy integral I = ∫ (G V²/2 + G Z / (γ(γ-1))) ξ^{j+1} dξ over
	// (0, 1], evaluated as ∫ f ξ^{j+2} dx by trapezoid on the x grid.
	integrand := func(i int) float64 {
		xi := math.Exp(-float64(i) * s.dx)
		G := math.Exp(s.lg[i])
		Z := math.Exp(s.lz[i])
		V := s.v[i]
		f := G*V*V/2 + G*Z/(g*(g-1))
		return f * math.Pow(xi, float64(s.selfSimJ+2))
	}
	var integral float64
	prev := integrand(0)
	for i := 1; i <= sedovSteps; i++ {
		cur := integrand(i)
		integral += 0.5 * (prev + cur) * s.dx
		prev = cur
	}
	// alpha = S_j * delta^2 * I with S_3 = 4*pi.
	s.Alpha = 4 * math.Pi * s.selfSimDel * s.selfSimDel * integral
	return s
}

// ShockRadius returns R(t) = (E t^2 / (alpha rho0))^(1/5).
func (s *Sedov) ShockRadius(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return math.Pow(s.E*t*t/(s.Alpha*s.Rho0), 1.0/5.0)
}

// profileAt interpolates (V, G, Z) at x = ln(xi) <= 0, extending the table
// below its range with the asymptotic log-slopes.
func (s *Sedov) profileAt(x float64) (V, G, Z float64) {
	if x <= s.xMin {
		d := x - s.xMin
		n := sedovSteps
		return s.v[n], math.Exp(s.lg[n] + s.dvE[1]*d), math.Exp(s.lz[n] + s.dvE[2]*d)
	}
	f := -x / s.dx
	i := int(f)
	if i >= sedovSteps {
		i = sedovSteps - 1
	}
	w := f - float64(i)
	lerp := func(a []float64) float64 { return a[i]*(1-w) + a[i+1]*w }
	return lerp(s.v), math.Exp(lerp(s.lg)), math.Exp(lerp(s.lz))
}

// Name implements Solution.
func (s *Sedov) Name() string { return "sedov-taylor" }

// Eval implements Solution: ambient outside the shock, the self-similar
// profile inside. Once the shock radius exceeds RValid the blast interacts
// with the domain boundary and every point is invalid.
func (s *Sedov) Eval(pos vec.V3, t float64) (State, bool) {
	R := s.ShockRadius(t)
	if s.RValid > 0 && R >= s.RValid {
		return State{}, false
	}
	ambient := State{Rho: s.Rho0, P: s.pAmbient}
	if t <= 0 {
		return ambient, true
	}
	d := pos.Sub(s.Center)
	r := d.Norm()
	if r >= R {
		return ambient, true
	}
	if r == 0 {
		// At the exact center u=0; density follows G's asymptote and the
		// pressure tends to a finite limit.
		_, G, _ := s.profileAt(s.xMin)
		return State{Rho: s.Rho0 * G, P: s.centerPressure(t)}, true
	}
	xi := r / R
	V, G, Z := s.profileAt(math.Log(xi))
	del := s.selfSimDel
	u := del * (r / t) * V
	rho := s.Rho0 * G
	c2 := del * del * (r / t) * (r / t) * Z
	return State{
		Rho: rho,
		Vel: d.Scale(u / r),
		P:   rho * c2 / s.Gamma,
	}, true
}

// centerPressure evaluates the finite central pressure limit: rho*c²/γ with
// rho → 0 and c² → ∞ combining to G·Z·ξ² approaching a constant.
func (s *Sedov) centerPressure(t float64) float64 {
	n := sedovSteps
	xi := math.Exp(s.xMin)
	G := math.Exp(s.lg[n])
	Z := math.Exp(s.lz[n])
	R := s.ShockRadius(t)
	del := s.selfSimDel
	r := xi * R
	return s.Rho0 * G * del * del * (r / t) * (r / t) * Z / s.Gamma
}
