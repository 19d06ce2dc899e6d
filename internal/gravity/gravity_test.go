package gravity

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/ic"
	"repro/internal/tree"
	"repro/internal/vec"
)

func cluster(n int, rng *rand.Rand) ([]vec.V3, []float64) {
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		mass[i] = 0.5 + rng.Float64()
	}
	return pos, mass
}

func maxRelAccError(got, want []vec.V3) float64 {
	var worst float64
	for i := range got {
		wn := want[i].Norm()
		if wn == 0 {
			continue
		}
		e := got[i].Sub(want[i]).Norm() / wn
		if e > worst {
			worst = e
		}
	}
	return worst
}

func TestSym3Symmetry(t *testing.T) {
	var s Sym3
	s.AddAt(0, 1, 2, 5)
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		if got := s.At(p[0], p[1], p[2]); got != 5 {
			t.Errorf("At(%v) = %g, want 5", p, got)
		}
	}
	if got := s.At(0, 0, 0); got != 0 {
		t.Errorf("unset component = %g", got)
	}
}

func TestSym4Symmetry(t *testing.T) {
	var s Sym4
	s.AddAt(2, 0, 1, 0, 7)
	perms := [][4]int{{0, 0, 1, 2}, {2, 1, 0, 0}, {1, 0, 2, 0}, {0, 2, 0, 1}}
	for _, p := range perms {
		if got := s.At(p[0], p[1], p[2], p[3]); got != 7 {
			t.Errorf("At(%v) = %g, want 7", p, got)
		}
	}
	// All 15 canonical components are distinct slots.
	var u Sym4
	n := 0
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			for k := j; k < 3; k++ {
				for l := k; l < 3; l++ {
					u.AddAt(i, j, k, l, 1)
					n++
				}
			}
		}
	}
	if n != 15 {
		t.Fatalf("canonical rank-4 components = %d, want 15", n)
	}
	for i, v := range u {
		if v != 1 {
			t.Errorf("slot %d = %g, want 1 (index collision)", i, v)
		}
	}
}

func TestTwoBodyExact(t *testing.T) {
	pos := []vec.V3{{X: 0}, {X: 1}}
	mass := []float64{2, 3}
	res := Direct(pos, mass, 1, 0, 1)
	// a_0 = -G m_1 (r_0-r_1)/|...|^3 = -3 * (-1) = +3 x.
	if math.Abs(res.Acc[0].X-3) > 1e-14 || math.Abs(res.Acc[1].X+2) > 1e-14 {
		t.Fatalf("two-body acc = %v, %v", res.Acc[0], res.Acc[1])
	}
	if math.Abs(res.Pot[0]+3) > 1e-14 || math.Abs(res.Pot[1]+2) > 1e-14 {
		t.Fatalf("two-body pot = %v, %v", res.Pot[0], res.Pot[1])
	}
	// E_pot = 1/2 sum_i m_i phi_i.
	if e := (mass[0]*res.Pot[0] + mass[1]*res.Pot[1]) / 2; math.Abs(e+6) > 1e-12 {
		t.Fatalf("E_pot = %g, want -6", e)
	}
}

func TestDirectMomentumConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pos, mass := cluster(100, rng)
	res := Direct(pos, mass, 1, 0.01, 4)
	var f vec.V3
	for i := range pos {
		f = f.MulAdd(mass[i], res.Acc[i])
	}
	// Newton's third law: total force vanishes.
	if f.Norm() > 1e-9 {
		t.Fatalf("net force = %v", f)
	}
}

func TestTreeMatchesDirectFarField(t *testing.T) {
	// A compact cluster evaluated from afar: even monopole should be good;
	// higher orders must be increasingly accurate.
	rng := rand.New(rand.NewSource(2))
	pos, mass := cluster(200, rng)
	far := []vec.V3{{X: 10, Y: 0.3, Z: -0.2}}
	// Append the far particle.
	allPos := append(append([]vec.V3{}, pos...), far...)
	allMass := append(append([]float64{}, mass...), 1)
	tr := tree.Build(allPos, tree.Options{LeafCap: 16})
	want := Direct(allPos, allMass, 1, 0, 1)
	tgt := []int32{int32(len(allPos) - 1)}

	var prevErr float64 = math.Inf(1)
	for _, ord := range []Order{Monopole, Quadrupole, Hexadecapole} {
		s := NewSolver(tr, allPos, allMass)
		s.Order = ord
		s.Theta = 0.9 // force multipole acceptance
		got := s.Accelerations(tgt, 1)
		e := got.Acc[0].Sub(want.Acc[len(allPos)-1]).Norm() / want.Acc[len(allPos)-1].Norm()
		if e >= prevErr {
			t.Errorf("%v error %g did not improve on previous %g", ord, e, prevErr)
		}
		prevErr = e
	}
	// Truncation error of a 4th-order expansion scales as (size/dist)^5;
	// the cluster has RMax ~ 0.9 at dist ~ 10, so ~1e-5 is the physical
	// scale. Demand an order of magnitude inside it.
	if prevErr > 2e-6 {
		t.Errorf("hexadecapole far-field error %g too large", prevErr)
	}
}

func TestTreeAccuracyOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pos, mass := cluster(600, rng)
	tr := tree.Build(pos, tree.Options{LeafCap: 16})
	want := Direct(pos, mass, 1, 0, 4)
	targets := make([]int32, len(pos))
	for i := range targets {
		targets[i] = int32(i)
	}
	errs := map[Order]float64{}
	for _, ord := range []Order{Monopole, Quadrupole, Hexadecapole} {
		s := NewSolver(tr, pos, mass)
		s.Order = ord
		s.Theta = 0.5
		got := s.Accelerations(targets, 4)
		errs[ord] = maxRelAccError(got.Acc, want.Acc)
	}
	if !(errs[Hexadecapole] < errs[Quadrupole] && errs[Quadrupole] < errs[Monopole]) {
		t.Errorf("error ordering violated: mono=%g quad=%g hexa=%g",
			errs[Monopole], errs[Quadrupole], errs[Hexadecapole])
	}
	if errs[Quadrupole] > 0.02 {
		t.Errorf("quadrupole max error %g > 2%%", errs[Quadrupole])
	}
	if errs[Hexadecapole] > 0.005 {
		t.Errorf("hexadecapole max error %g > 0.5%%", errs[Hexadecapole])
	}
}

func TestThetaZeroIsExact(t *testing.T) {
	// Theta -> 0 forces opening every node down to direct sums.
	rng := rand.New(rand.NewSource(4))
	pos, mass := cluster(150, rng)
	tr := tree.Build(pos, tree.Options{LeafCap: 8})
	s := NewSolver(tr, pos, mass)
	s.Theta = 1e-9
	targets := make([]int32, len(pos))
	for i := range targets {
		targets[i] = int32(i)
	}
	got := s.Accelerations(targets, 2)
	want := Direct(pos, mass, 1, 0, 2)
	if e := maxRelAccError(got.Acc, want.Acc); e > 1e-12 {
		t.Errorf("theta=0 walk differs from direct by %g", e)
	}
	if got.NodeInteractions != 0 {
		t.Errorf("theta=0 accepted %d multipoles", got.NodeInteractions)
	}
}

func TestMomentTranslationConsistency(t *testing.T) {
	// Root moments computed via M2M (deep tree) must equal moments computed
	// directly from particles (leafcap >= n forces a single P2M).
	rng := rand.New(rand.NewSource(5))
	pos, mass := cluster(300, rng)
	deep := NewSolver(tree.Build(pos, tree.Options{LeafCap: 4}), pos, mass)
	flat := NewSolver(tree.Build(pos, tree.Options{LeafCap: 1000}), pos, mass)
	a, b := deep.moments[0], flat.moments[0]
	if math.Abs(a.Mass-b.Mass) > 1e-10 {
		t.Fatalf("mass differs: %g vs %g", a.Mass, b.Mass)
	}
	if a.COM.Sub(b.COM).Norm() > 1e-12 {
		t.Fatalf("COM differs: %v vs %v", a.COM, b.COM)
	}
	relTol := func(x, y, scale float64) bool { return math.Abs(x-y) <= 1e-9*scale }
	scale2 := math.Abs(b.M2.Trace()) + 1
	for _, pair := range [][2]float64{
		{a.M2.XX, b.M2.XX}, {a.M2.XY, b.M2.XY}, {a.M2.XZ, b.M2.XZ},
		{a.M2.YY, b.M2.YY}, {a.M2.YZ, b.M2.YZ}, {a.M2.ZZ, b.M2.ZZ},
	} {
		if !relTol(pair[0], pair[1], scale2) {
			t.Fatalf("M2 differs: %g vs %g", pair[0], pair[1])
		}
	}
	for i := range a.M3 {
		if !relTol(a.M3[i], b.M3[i], scale2) {
			t.Fatalf("M3[%d] differs: %g vs %g", i, a.M3[i], b.M3[i])
		}
	}
	for i := range a.M4 {
		if !relTol(a.M4[i], b.M4[i], scale2) {
			t.Fatalf("M4[%d] differs: %g vs %g", i, a.M4[i], b.M4[i])
		}
	}
}

func TestSofteningBoundsAcceleration(t *testing.T) {
	// Two coincident-ish particles: softened force must stay finite and
	// below the eps-limited bound G m / eps^2.
	pos := []vec.V3{{X: 0}, {X: 1e-12}}
	mass := []float64{1, 1}
	res := Direct(pos, mass, 1, 0.1, 1)
	bound := 1.0 / (0.1 * 0.1)
	if a := res.Acc[0].Norm(); a > bound {
		t.Fatalf("softened acc %g exceeds bound %g", a, bound)
	}
	if !res.Acc[0].IsFinite() {
		t.Fatal("softened acc not finite")
	}
}

func TestSolverCountsWork(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pos, mass := cluster(500, rng)
	tr := tree.Build(pos, tree.Options{LeafCap: 16})
	s := NewSolver(tr, pos, mass)
	s.Theta = 0.6
	targets := make([]int32, len(pos))
	for i := range targets {
		targets[i] = int32(i)
	}
	res := s.Accelerations(targets, 3)
	if res.NodeInteractions == 0 || res.ParticleInteractions == 0 {
		t.Fatalf("work counters empty: nodes=%d pairs=%d", res.NodeInteractions, res.ParticleInteractions)
	}
	// Tree must do far fewer pair interactions than direct.
	if res.ParticleInteractions >= int64(len(pos))*int64(len(pos)-1) {
		t.Fatalf("tree did %d pairs, no better than direct", res.ParticleInteractions)
	}
}

func TestEmptyTargets(t *testing.T) {
	pos, mass := cluster(10, rand.New(rand.NewSource(7)))
	tr := tree.Build(pos, tree.Options{})
	s := NewSolver(tr, pos, mass)
	res := s.Accelerations(nil, 2)
	if len(res.Acc) != 0 {
		t.Fatal("non-empty result for empty targets")
	}
}

func TestOrderString(t *testing.T) {
	if Monopole.String() == "" || Quadrupole.String() == "" || Hexadecapole.String() == "" || Order(9).String() == "" {
		t.Error("empty Order name")
	}
}

func BenchmarkTreeGravity10k(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	pos, mass := cluster(10000, rng)
	tr := tree.Build(pos, tree.Options{})
	targets := make([]int32, len(pos))
	for i := range targets {
		targets[i] = int32(i)
	}
	for _, ord := range []Order{Monopole, Quadrupole, Hexadecapole} {
		b.Run(ord.String(), func(b *testing.B) {
			s := NewSolver(tr, pos, mass)
			s.Order = ord
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Accelerations(targets, 0)
			}
		})
	}
}

func BenchmarkDirect2k(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	pos, mass := cluster(2000, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Direct(pos, mass, 1, 0, 0)
	}
}

// TestWalkInteractionsPinned pins which cells every particle of an Evrard
// sphere interacts with, per multipole order, through the two work counts,
// and the walk's accuracy against Direct at today's values rounded up in
// the third significant digit. A walk that keeps the same opening test and
// leaf rule keeps both counts exactly; only the rounding of the sums moves.
func TestWalkInteractionsPinned(t *testing.T) {
	ps, _, box := ic.DefaultEvrard(8000).Generate(nil)
	pos, mass := ps.Pos[:ps.NLocal], ps.Mass[:ps.NLocal]
	tr := tree.Build(pos, tree.Options{Box: box})
	targets := make([]int32, len(pos))
	for i := range targets {
		targets[i] = int32(i)
	}
	want := Direct(pos, mass, 1, 0.02, 0)
	for _, c := range []struct {
		ord    Order
		maxErr float64
	}{{Monopole, 0.01062}, {Quadrupole, 0.00495}, {Hexadecapole, 0.000552}} {
		s := NewSolver(tr, pos, mass)
		s.Order, s.Theta, s.Eps, s.G = c.ord, 0.6, 0.02, 1
		got := s.Accelerations(targets, 0)
		if got.NodeInteractions != 1019728 || got.ParticleInteractions != 4626840 {
			t.Errorf("%v: %d node and %d pair interactions, want 1019728 and 4626840",
				c.ord, got.NodeInteractions, got.ParticleInteractions)
		}
		e := maxRelAccError(got.Acc, want.Acc)
		t.Logf("%v: max relative error %.6g", c.ord, e)
		if e > c.maxErr {
			t.Errorf("%v: max relative error %g against Direct, want <= %g", c.ord, e, c.maxErr)
		}
	}
}

// TestSharedSolverReaders: AccelerationsInto only reads the solver, so
// goroutines may share one (every rank reads rank 0's). Four of them, each
// over a disjoint quarter of the targets, produce exactly the one call over
// all targets, counts included.
func TestSharedSolverReaders(t *testing.T) {
	pos, mass := cluster(2000, rand.New(rand.NewSource(10)))
	s := NewSolver(tree.Build(pos, tree.Options{}), pos, mass)
	s.Order, s.Eps = Quadrupole, 0.01
	targets := make([]int32, len(pos))
	for i := range targets {
		targets[i] = int32(i)
	}
	want := s.Accelerations(targets, 2)

	const readers = 4
	parts := make([]Result, readers)
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := r*len(targets)/readers, (r+1)*len(targets)/readers
			s.AccelerationsInto(&parts[r], targets[lo:hi], 2)
		}()
	}
	wg.Wait()
	var acc []vec.V3
	var pot []float64
	var nodes, pairs int64
	for _, p := range parts {
		acc, pot = append(acc, p.Acc...), append(pot, p.Pot...)
		nodes += p.NodeInteractions
		pairs += p.ParticleInteractions
	}
	if !slices.Equal(acc, want.Acc) || !slices.Equal(pot, want.Pot) {
		t.Error("four readers' accelerations or potentials differ from one call's")
	}
	if nodes != want.NodeInteractions || pairs != want.ParticleInteractions {
		t.Errorf("four readers counted %d nodes and %d pairs, one call %d and %d",
			nodes, pairs, want.NodeInteractions, want.ParticleInteractions)
	}
}

// AddAt accumulates v into component (i, j, k).
func (t *Sym3) AddAt(i, j, k int, v float64) {
	i, j, k = sort3(i, j, k)
	t[sym3Index[i][j][k]] += v
}

// AddAt accumulates v into component (i, j, k, l).
func (t *Sym4) AddAt(i, j, k, l int, v float64) {
	i, j, k, l = sort4(i, j, k, l)
	t[sym4Index[i][j][k][l]] += v
}
