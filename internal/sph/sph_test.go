package sph

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/eos"
	"repro/internal/ic"
	"repro/internal/kernel"
	"repro/internal/part"
	"repro/internal/tree"
	"repro/internal/vec"
)

func cubeParams(t *testing.T) *Params {
	t.Helper()
	p := &Params{
		Kernel:     kernel.NewM4(),
		EOS:        eos.NewIdealGas(5.0 / 3.0),
		NNeighbors: 60,
		Workers:    4,
	}
	if err := p.Defaults(); err != nil {
		t.Fatal(err)
	}
	return p
}

// preparedCube returns a periodic uniform cube with tree and neighbor list.
func preparedCube(t *testing.T, nside int, p *Params) (*part.Set, *NeighborList) {
	t.Helper()
	ps, pbc, box := ic.UniformCube(nil, nside, p.NNeighbors)
	p.PBC = pbc
	p.Box = box
	tr := BuildTree(ps, p)
	nl := UpdateSmoothingLengths(ps, tr, p)
	return ps, nl
}

func TestDefaultsValidation(t *testing.T) {
	p := &Params{}
	if err := p.Defaults(); err == nil {
		t.Error("nil kernel accepted")
	}
	p.Kernel = kernel.NewM4()
	if err := p.Defaults(); err == nil {
		t.Error("nil EOS accepted")
	}
	p.EOS = eos.NewIdealGas(1.4)
	p.NNeighbors = 2
	if err := p.Defaults(); err == nil {
		t.Error("NNeighbors=2 accepted")
	}
	p.NNeighbors = 0
	if err := p.Defaults(); err != nil {
		t.Fatal(err)
	}
	if p.NNeighbors != 100 || p.AlphaVisc != 1 || p.BetaVisc != 2 {
		t.Errorf("defaults not applied: %+v", p)
	}
}

func TestNeighborCountsNearTarget(t *testing.T) {
	p := cubeParams(t)
	ps, nl := preparedCube(t, 10, p)
	for i := 0; i < ps.NLocal; i++ {
		n := len(nl.Of(i))
		if math.Abs(float64(n)-float64(p.NNeighbors)) > 0.25*float64(p.NNeighbors) {
			t.Fatalf("particle %d has %d neighbors, target %d", i, n, p.NNeighbors)
		}
		if int(ps.NN[i]) != n {
			t.Fatalf("NN[%d]=%d != list count %d", i, ps.NN[i], n)
		}
	}
}

func TestNeighborListExcludesSelf(t *testing.T) {
	p := cubeParams(t)
	_, nl := preparedCube(t, 8, p)
	for i := 0; i < 512; i++ {
		for _, j := range nl.Of(i) {
			if int(j) == i {
				t.Fatalf("particle %d lists itself", i)
			}
		}
	}
}

func TestDensityUniformCube(t *testing.T) {
	for _, mode := range []VolumeMode{StandardVolume, GeneralizedVolume} {
		p := cubeParams(t)
		p.Volumes = mode
		ps, nl := preparedCube(t, 10, p)
		Density(ps, nl, p)
		for i := 0; i < ps.NLocal; i++ {
			if math.Abs(ps.Rho[i]-1) > 0.03 {
				t.Fatalf("%v: rho[%d] = %g, want 1 +- 3%%", mode, i, ps.Rho[i])
			}
			if ps.VE[i] <= 0 {
				t.Fatalf("%v: VE[%d] = %g", mode, i, ps.VE[i])
			}
		}
	}
}

func TestDensityMassConsistency(t *testing.T) {
	// sum_i V_i should approximate the periodic volume (=1) in both modes.
	for _, mode := range []VolumeMode{StandardVolume, GeneralizedVolume} {
		p := cubeParams(t)
		p.Volumes = mode
		ps, nl := preparedCube(t, 10, p)
		Density(ps, nl, p)
		var vol float64
		for i := 0; i < ps.NLocal; i++ {
			vol += ps.VE[i]
		}
		if math.Abs(vol-1) > 0.03 {
			t.Fatalf("%v: total volume %g, want ~1", mode, vol)
		}
	}
}

func TestEquationOfState(t *testing.T) {
	p := cubeParams(t)
	ps, nl := preparedCube(t, 6, p)
	Density(ps, nl, p)
	EquationOfState(ps, p)
	for i := 0; i < ps.NLocal; i++ {
		want := p.EOS.Pressure(ps.Rho[i], ps.U[i])
		if ps.P[i] != want {
			t.Fatalf("P[%d] = %g, want %g", i, ps.P[i], want)
		}
		if ps.C[i] <= 0 {
			t.Fatalf("C[%d] = %g", i, ps.C[i])
		}
	}
}

// TestIADReproducesLinearGradient is the defining IAD property: for a linear
// field A(r) = g.r the discrete gradient estimate is exact (to round-off)
// regardless of particle disorder (García-Senz et al. 2012).
func TestIADReproducesLinearGradient(t *testing.T) {
	p := cubeParams(t)
	p.Gradients = IAD
	ps, nl := preparedCube(t, 10, p)
	// Perturb positions to break lattice symmetry (IAD's whole point).
	rng := rand.New(rand.NewSource(3))
	dx := 1.0 / 10
	for i := 0; i < ps.NLocal; i++ {
		ps.Pos[i] = ps.Pos[i].Add(vec.V3{
			X: (rng.Float64() - 0.5) * 0.3 * dx,
			Y: (rng.Float64() - 0.5) * 0.3 * dx,
			Z: (rng.Float64() - 0.5) * 0.3 * dx,
		})
	}
	tr := BuildTree(ps, p)
	nl = UpdateSmoothingLengths(ps, tr, p)
	Density(ps, nl, p)
	if fb := ComputeIAD(ps, nl, p); fb > 0 {
		t.Fatalf("%d IAD fallbacks on a near-uniform cube", fb)
	}
	g := vec.V3{X: 1.5, Y: -2, Z: 0.5}
	// Discrete gradient of the linear field at interior particle i.
	for _, i := range []int{333, 555, 700} {
		var grad vec.V3
		ai := g.Dot(ps.Pos[i])
		for _, j := range nl.Of(i) {
			d := p.PBC.Wrap(ps.Pos[j].Sub(ps.Pos[i]))
			// Evaluate the field consistently with the wrapped geometry.
			ajv := ai + g.Dot(d)
			w := p.Kernel.W(d.Norm(), ps.H[i])
			grad = grad.Add(ps.Tau[i].MulVec(d).Scale(ps.VE[j] * (ajv - ai) * w))
		}
		if grad.Sub(g).Norm() > 1e-10*g.Norm() {
			t.Fatalf("IAD gradient at %d = %v, want %v", i, grad, g)
		}
	}
}

// TestKernelGradientLinearFieldApproximate: the standard estimator is only
// approximate on disordered particles — verify it is close but measurably
// worse than IAD.
func TestKernelGradientApproximation(t *testing.T) {
	p := cubeParams(t)
	ps, nl := preparedCube(t, 10, p)
	rng := rand.New(rand.NewSource(4))
	dx := 1.0 / 10
	for i := 0; i < ps.NLocal; i++ {
		ps.Pos[i] = ps.Pos[i].Add(vec.V3{
			X: (rng.Float64() - 0.5) * 0.3 * dx,
			Y: (rng.Float64() - 0.5) * 0.3 * dx,
			Z: (rng.Float64() - 0.5) * 0.3 * dx,
		})
	}
	tr := BuildTree(ps, p)
	nl = UpdateSmoothingLengths(ps, tr, p)
	Density(ps, nl, p)
	ComputeIAD(ps, nl, p)
	g := vec.V3{X: 1, Y: 0, Z: 0}
	var errKD, errIAD float64
	count := 0
	for i := 0; i < ps.NLocal; i += 37 {
		var gradKD, gradIAD vec.V3
		for _, j := range nl.Of(i) {
			d := p.PBC.Wrap(ps.Pos[j].Sub(ps.Pos[i]))
			da := g.Dot(d)
			r := d.Norm()
			if r == 0 {
				continue
			}
			w := p.Kernel.W(r, ps.H[i])
			dw := p.Kernel.GradW(r, ps.H[i])
			gradKD = gradKD.Add(d.Scale(-dw / r * ps.VE[j] * da))
			gradIAD = gradIAD.Add(ps.Tau[i].MulVec(d).Scale(ps.VE[j] * da * w))
		}
		errKD += gradKD.Sub(g).Norm()
		errIAD += gradIAD.Sub(g).Norm()
		count++
	}
	if errIAD >= errKD {
		t.Fatalf("IAD mean error %g not better than kernel derivatives %g", errIAD/float64(count), errKD/float64(count))
	}
}

func forceTestSet(t *testing.T, mode GradientMode, vol VolumeMode) (*part.Set, *NeighborList, *Params) {
	t.Helper()
	p := cubeParams(t)
	p.Gradients = mode
	p.Volumes = vol
	ps, nl := preparedCube(t, 10, p)
	// Random velocities and energies for a non-trivial force state.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < ps.NLocal; i++ {
		ps.Vel[i] = vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Scale(0.1)
		ps.U[i] = 1 + 0.2*rng.Float64()
	}
	Density(ps, nl, p)
	EquationOfState(ps, p)
	if mode == IAD {
		if fb := ComputeIAD(ps, nl, p); fb > 0 {
			t.Fatalf("%d IAD fallbacks", fb)
		}
	}
	return ps, nl, p
}

// TestMomentumConservation: the pairwise-antisymmetric force must sum to
// zero over a periodic box, in every gradient/volume mode combination.
func TestMomentumConservation(t *testing.T) {
	for _, mode := range []GradientMode{KernelDerivatives, IAD} {
		for _, vol := range []VolumeMode{StandardVolume, GeneralizedVolume} {
			ps, nl, p := forceTestSet(t, mode, vol)
			if vol == GeneralizedVolume {
				// One particle on the IAD fallback (singular tau): its pairs
				// mix an IAD term with a kernel-derivative term and must
				// still cancel.
				ps.Tau[123] = vec.Sym33{}
			}
			MomentumEnergy(ps, nl, p)
			var f vec.V3
			var scale float64
			for i := 0; i < ps.NLocal; i++ {
				f = f.MulAdd(ps.Mass[i], ps.Acc[i])
				scale += ps.Mass[i] * ps.Acc[i].Norm()
			}
			if scale == 0 {
				t.Fatalf("%v/%v: forces identically zero", mode, vol)
			}
			if f.Norm() > 1e-11*scale {
				t.Errorf("%v/%v: net force %v (scale %g)", mode, vol, f, scale)
			}
		}
	}
}

// TestEnergyConservationSemiDiscrete: d/dt(KE + U) = 0 exactly for the
// semi-discrete equations: sum_i m_i v_i . a_i + sum_i m_i du_i/dt = 0.
func TestEnergyConservationSemiDiscrete(t *testing.T) {
	for _, mode := range []GradientMode{KernelDerivatives, IAD} {
		ps, nl, p := forceTestSet(t, mode, StandardVolume)
		MomentumEnergy(ps, nl, p)
		var dKE, dU, scale float64
		for i := 0; i < ps.NLocal; i++ {
			dKE += ps.Mass[i] * ps.Vel[i].Dot(ps.Acc[i])
			dU += ps.Mass[i] * ps.DU[i]
			scale += math.Abs(ps.Mass[i] * ps.Vel[i].Dot(ps.Acc[i]))
		}
		if math.Abs(dKE+dU) > 1e-10*scale {
			t.Errorf("%v: dE/dt = %g (scale %g)", mode, dKE+dU, scale)
		}
	}
}

// TestViscousHeatingPositive: a uniformly compressing flow must heat every
// particle (viscosity and PdV both positive).
func TestViscousHeatingPositive(t *testing.T) {
	p := cubeParams(t)
	ps, nl := preparedCube(t, 8, p)
	// Radial inflow toward the box center.
	for i := 0; i < ps.NLocal; i++ {
		d := ps.Pos[i].Sub(vec.V3{X: 0.5, Y: 0.5, Z: 0.5})
		ps.Vel[i] = d.Scale(-1)
		ps.U[i] = 0.01
	}
	Density(ps, nl, p)
	EquationOfState(ps, p)
	st := MomentumEnergy(ps, nl, p)
	heated := 0
	for i := 0; i < ps.NLocal; i++ {
		if ps.DU[i] > 0 {
			heated++
		}
	}
	if heated < ps.NLocal*9/10 {
		t.Errorf("only %d/%d particles heating under compression", heated, ps.NLocal)
	}
	if st.MaxVSignal <= 0 {
		t.Error("no signal speed recorded")
	}
	if st.Interactions == 0 {
		t.Error("no interactions counted")
	}
}

// TestStaticUniformStateHasNoForces: a uniform periodic box at rest must
// produce (near-)zero accelerations — the discrete pressure gradient of a
// constant field vanishes by symmetry of the lattice.
func TestStaticUniformStateHasNoForces(t *testing.T) {
	p := cubeParams(t)
	ps, nl := preparedCube(t, 8, p)
	Density(ps, nl, p)
	EquationOfState(ps, p)
	MomentumEnergy(ps, nl, p)
	for i := 0; i < ps.NLocal; i++ {
		// Pressure ~ (gamma-1) rho u ~ 0.67; lattice symmetry cancels pair
		// forces to round-off.
		if ps.Acc[i].Norm() > 1e-9 {
			t.Fatalf("static lattice acc[%d] = %v", i, ps.Acc[i])
		}
		if math.Abs(ps.DU[i]) > 1e-9 {
			t.Fatalf("static lattice du[%d] = %g", i, ps.DU[i])
		}
	}
}

// TestExpansionCools: uniform expansion must cool (PdV work), and viscosity
// must stay inactive (receding pairs).
func TestExpansionCools(t *testing.T) {
	// Expansion is incompatible with fixed periodicity; use vacuum
	// boundaries (free surface).
	p := cubeParams(t)
	ps, _, _ := ic.UniformCube(nil, 8, p.NNeighbors)
	for i := 0; i < ps.NLocal; i++ {
		d := ps.Pos[i].Sub(vec.V3{X: 0.5, Y: 0.5, Z: 0.5})
		ps.Vel[i] = d.Scale(1)
		ps.U[i] = 1
	}
	tr := BuildTree(ps, p)
	nl := UpdateSmoothingLengths(ps, tr, p)
	Density(ps, nl, p)
	EquationOfState(ps, p)
	MomentumEnergy(ps, nl, p)
	cooled := 0
	for i := 0; i < ps.NLocal; i++ {
		if ps.DU[i] < 0 {
			cooled++
		}
	}
	if cooled < ps.NLocal*9/10 {
		t.Errorf("only %d/%d particles cooling under expansion", cooled, ps.NLocal)
	}
}

func TestComputeIADFallbackOnDegenerate(t *testing.T) {
	// Collinear particles: tau is rank-1, inversion must fall back, not blow up.
	p := cubeParams(t)
	p.NNeighbors = 4
	p.HTolerance = 10 // accept any count; geometry is what matters
	ps := part.New(5)
	for i := 0; i < 5; i++ {
		ps.ID[i] = int64(i)
		ps.Pos[i] = vec.V3{X: float64(i) * 0.1}
		ps.Mass[i] = 1
		ps.H[i] = 0.3
		ps.Rho[i] = 1
		ps.VE[i] = 1
	}
	tr := BuildTree(ps, p)
	nl := new(Workspace).findNeighbors(ps, tr, p, 0) // h pinned
	fb := ComputeIAD(ps, nl, p)
	if fb != 5 {
		t.Fatalf("collinear config: %d fallbacks, want 5", fb)
	}
	for i := 0; i < 5; i++ {
		if ps.Tau[i] != (vec.Sym33{}) {
			t.Fatalf("degenerate tau not zeroed for %d", i)
		}
	}
}

func BenchmarkDensity32k(b *testing.B) {
	p := &Params{Kernel: kernel.NewM4(), EOS: eos.NewIdealGas(5.0 / 3.0), NNeighbors: 100}
	if err := p.Defaults(); err != nil {
		b.Fatal(err)
	}
	ps, pbc, box := ic.UniformCube(nil, 32, p.NNeighbors)
	p.PBC = pbc
	p.Box = box
	tr := BuildTree(ps, p)
	nl := UpdateSmoothingLengths(ps, tr, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Density(ps, nl, p)
	}
}

func BenchmarkComputeIAD32k(b *testing.B) {
	p := &Params{Kernel: kernel.NewM4(), EOS: eos.NewIdealGas(5.0 / 3.0), NNeighbors: 100}
	if err := p.Defaults(); err != nil {
		b.Fatal(err)
	}
	ps, pbc, box := ic.UniformCube(nil, 32, p.NNeighbors)
	p.PBC = pbc
	p.Box = box
	tr := BuildTree(ps, p)
	nl := UpdateSmoothingLengths(ps, tr, p)
	Density(ps, nl, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeIAD(ps, nl, p)
	}
}

func BenchmarkMomentumEnergy32k(b *testing.B) {
	p := &Params{Kernel: kernel.NewM4(), EOS: eos.NewIdealGas(5.0 / 3.0), NNeighbors: 100}
	if err := p.Defaults(); err != nil {
		b.Fatal(err)
	}
	ps, pbc, box := ic.UniformCube(nil, 32, p.NNeighbors)
	p.PBC = pbc
	p.Box = box
	tr := BuildTree(ps, p)
	nl := UpdateSmoothingLengths(ps, tr, p)
	Density(ps, nl, p)
	EquationOfState(ps, p)
	var ws Workspace // a stepper's: its factor columns are allocated once
	ws.MomentumEnergy(ps, nl, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.MomentumEnergy(ps, nl, p)
	}
}

// checkCSR asserts that nl is exactly the brute-force neighbor list at the
// current smoothing lengths: offsets are the prefix sum of the counts, and
// every particle's entries are its neighbors within 2h, each once, without
// itself — so nothing was dropped, padded or written twice.
func checkCSR(t *testing.T, name string, ps *part.Set, nl *NeighborList, p *Params) {
	t.Helper()
	n := ps.NLocal
	if nl.Offsets[0] != 0 || int(nl.Offsets[n]) != len(nl.Nbr) {
		t.Fatalf("%s: offsets span [%d, %d], list has %d entries", name, nl.Offsets[0], nl.Offsets[n], len(nl.Nbr))
	}
	for i := 0; i < n; i++ {
		if nl.Offsets[i+1] < nl.Offsets[i] {
			t.Fatalf("%s: offsets not monotone at %d: %d > %d", name, i, nl.Offsets[i], nl.Offsets[i+1])
		}
		if int(ps.NN[i]) != len(nl.Of(i)) {
			t.Fatalf("%s: NN[%d] = %d, list holds %d", name, i, ps.NN[i], len(nl.Of(i)))
		}
		var want []int32
		for _, hit := range tree.BruteForceBallSearch(ps.Pos, p.PBC, ps.Pos[i], kernel.SupportRadius*ps.H[i], nil) {
			if int(hit.Idx) != i {
				want = append(want, hit.Idx)
			}
		}
		got := append([]int32(nil), nl.Of(i)...)
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		if !slices.Equal(got, want) {
			t.Fatalf("%s: particle %d lists %v, want %v", name, i, got, want)
		}
	}
}

func TestNeighborCSRStaysWellFormedWithNonFiniteParticle(t *testing.T) {
	// A particle whose position went NaN (physics blowup) matches nothing in
	// a ball search — not even itself — and nothing matches it: it must get
	// an empty list, every other list must stay exact, and downstream
	// kernels must see an empty neighbor set instead of panicking.
	p := cubeParams(t)
	ps, pbc, box := ic.UniformCube(nil, 8, p.NNeighbors)
	p.PBC = pbc
	p.Box = box
	bad := 5
	ps.Pos[bad] = vec.V3{X: math.NaN(), Y: math.NaN(), Z: math.NaN()}

	tr := BuildTree(ps, p)
	checkCSR(t, "UpdateSmoothingLengths", ps, UpdateSmoothingLengths(ps, tr, p), p)
	nl := new(Workspace).findNeighbors(ps, tr, p, 0)
	checkCSR(t, "findNeighbors at fixed h", ps, nl, p)
	if len(nl.Of(bad)) != 0 {
		t.Errorf("NaN particle has %d neighbors, want 0", len(nl.Of(bad)))
	}

	// The step kernels must run to completion over the poisoned set; the
	// NaN is then the watchdogs' problem, not a crash.
	Density(ps, nl, p)
	EquationOfState(ps, p)
	MomentumEnergy(ps, nl, p)
}

// disorderedCube is a periodic cube with jittered positions and smoothing
// lengths scattered around the converged value, so the h iteration shrinks
// some particles, grows others past the walk margin, and leaves some alone.
func disorderedCube(p *Params) *part.Set {
	ps, pbc, box := ic.UniformCube(nil, 10, p.NNeighbors)
	p.PBC, p.Box = pbc, box
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < ps.NLocal; i++ {
		ps.Pos[i] = ps.Pos[i].Add(vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}.Scale(0.03))
		ps.H[i] *= 0.7 + 0.6*rng.Float64()
	}
	return ps
}

// TestNeighborSearchIndependentOfWorkersAndHints: the smoothing lengths and
// the list depend on neither the worker count nor the previous step's counts
// that size the workers' regions — including hints so low that every worker
// overflows its region — nor on what an earlier search left in the
// workspace: the cases run back to back through one, high hints first. The
// number of tree walks depends on the worker count neither.
func TestNeighborSearchIndependentOfWorkersAndHints(t *testing.T) {
	p := cubeParams(t)
	p.Workers = 1
	ref := disorderedCube(p)
	refNL := UpdateSmoothingLengths(ref, BuildTree(ref, p), p)
	checkCSR(t, "workers=1", ref, refNL, p)
	if perParticle := float64(refNL.Walks) / float64(ref.NLocal); perParticle < 1 || perParticle > 2 {
		t.Errorf("%.2f tree walks per particle, want between 1 and 2", perParticle)
	}

	var ws Workspace
	for _, tc := range []struct {
		name    string
		workers int
		hint    int32
	}{{"workers=3, hints high", 3, 500}, {"workers=4", 4, 0}, {"workers=4, hints too low", 4, 1}, {"workers=1, hints too low", 1, 1}} {
		p.Workers = tc.workers
		ps := disorderedCube(p)
		for i := range ps.NN {
			ps.NN[i] = tc.hint
		}
		nl := ws.UpdateSmoothingLengths(ps, ws.BuildTree(ps, p), p)
		if !slices.Equal(ps.H, ref.H) || !slices.Equal(nl.Offsets, refNL.Offsets) || !slices.Equal(nl.Nbr, refNL.Nbr) {
			t.Errorf("%s: H, Offsets or Nbr differ from the single-worker search", tc.name)
		}
		// A particle's walks depend on its last count (one that fell short
		// walks wider at once), so they are compared with a single-worker
		// search from the same counts.
		p.Workers = 1
		same := disorderedCube(p)
		for i := range same.NN {
			same.NN[i] = tc.hint
		}
		if want := UpdateSmoothingLengths(same, BuildTree(same, p), p).Walks; nl.Walks != want {
			t.Errorf("%s: %d tree walks, single-worker search made %d", tc.name, nl.Walks, want)
		}
	}
}
