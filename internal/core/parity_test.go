package core

import (
	"math"
	"testing"

	"repro/internal/conserve"
	"repro/internal/domain"
	"repro/internal/eos"
	"repro/internal/gravity"
	"repro/internal/ic"
	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/part"
	"repro/internal/perfmodel"
	"repro/internal/sph"
	"repro/internal/ts"
)

// parityCase is one matched pair: the same initial conditions and the same
// number of steps on both engines, the driver the only difference.
type parityCase struct {
	name string
	gen  func(grad sph.GradientMode) (Config, *part.Set)
}

var parityCases = []parityCase{
	{"evrard-gravity", func(grad sph.GradientMode) (Config, *part.Set) {
		ev := ic.DefaultEvrard(1500)
		ev.NNeighbors = 40
		ps, pbc, box := ev.Generate()
		return Config{
			SPH: sph.Params{
				Kernel: kernel.NewSinc(5), EOS: eos.NewIdealGas(5.0 / 3.0),
				NNeighbors: 40, Gradients: grad, Volumes: sph.GeneralizedVolume,
				PBC: pbc, Box: box,
			},
			Gravity: true, GravOrder: gravity.Quadrupole, Theta: 0.6, Eps: 0.02, G: 1,
			Stepping: ts.Global,
		}, ps
	}},
	{"sedov-periodic", func(grad sph.GradientMode) (Config, *part.Set) {
		ps, pbc, box := ic.Sedov(10, 40, 1)
		return Config{
			SPH: sph.Params{
				Kernel: kernel.NewM4(), EOS: eos.NewIdealGas(5.0 / 3.0),
				NNeighbors: 40, Gradients: grad, PBC: pbc, Box: box,
			},
			Stepping: ts.Global,
		}, ps
	}},
	{"square-patch", func(grad sph.GradientMode) (Config, *part.Set) {
		sp := ic.DefaultSquarePatch(1000)
		sp.NNeighbors = 40
		ps, pbc, box := sp.Generate()
		return Config{
			SPH: sph.Params{
				Kernel: kernel.NewWendlandC2(), EOS: eos.NewTait(sp.Rho0, sp.SoundSpeed, 7),
				NNeighbors: 40, Gradients: grad, PBC: pbc, Box: box,
			},
			Stepping: ts.Adaptive,
		}, ps
	}},
}

// paritySteps covers four closing half-kicks.
const paritySteps = 5

// particleState is what the engines must agree on, per particle ID.
type particleState struct {
	v  [8]float64 // pos, vel, u, h
	nn int32
}

func statesByID(ps *part.Set) map[int64]particleState {
	m := make(map[int64]particleState, ps.NLocal)
	for i := 0; i < ps.NLocal; i++ {
		m[ps.ID[i]] = particleState{
			v: [8]float64{
				ps.Pos[i].X, ps.Pos[i].Y, ps.Pos[i].Z,
				ps.Vel[i].X, ps.Vel[i].Y, ps.Vel[i].Z,
				ps.U[i], ps.H[i],
			},
			nn: ps.NN[i],
		}
	}
	return m
}

// parityParallel runs the distributed engine over ranks ranks of the Piz
// Daint model (12 cores a node, one rank a node) and returns the merged end
// state with every step's reduced sample.
func parityParallel(t *testing.T, core Config, ps *part.Set, ranks, steps int) (*part.Set, []StepStats) {
	t.Helper()
	var samples []StepStats
	end, res, err := RunParallelCapture(ParallelConfig{
		Core:         core,
		Machine:      perfmodel.PizDaint(),
		Cores:        12 * ranks,
		RanksPerNode: 1,
		Decomp:       domain.MortonSFC,
		Cost:         testCost(),
		Steps:        steps,
		OnSample:     func(st StepStats) { samples = append(samples, st) },
	}, ps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks != ranks || res.StepsCompleted != steps {
		t.Fatalf("ran %d steps on %d ranks, want %d on %d", res.StepsCompleted, res.Ranks, steps, ranks)
	}
	return end, samples
}

// TestEnginesAgree is the contract the two drivers of Algorithm 1 are kept
// under: on one rank the simulated-MPI engine is the shared-memory engine
// bit for bit — final state and every step's reported extrema — and on four
// ranks it differs only by floating-point summation order.
func TestEnginesAgree(t *testing.T) {
	for _, pc := range parityCases {
		for _, grad := range []sph.GradientMode{sph.IAD, sph.KernelDerivatives} {
			pc, grad := pc, grad
			t.Run(pc.name+"/"+grad.String(), func(t *testing.T) {
				cfg, ps := pc.gen(grad)
				sim, err := New(cfg, ps.Clone())
				if err != nil {
					t.Fatal(err)
				}
				infos, err := sim.Run(paritySteps, 0)
				if err != nil {
					t.Fatal(err)
				}
				sim.Synchronize() // a distributed run returns a synchronized state
				want := statesByID(sim.PS)

				end1, samples := parityParallel(t, cfg, ps.Clone(), 1, paritySteps)
				got1 := statesByID(end1)
				if len(got1) != len(want) {
					t.Fatalf("1 rank: %d particles, want %d", len(got1), len(want))
				}
				for id, w := range want {
					if g := got1[id]; g != w {
						t.Fatalf("1 rank: particle %d = %+v, serial %+v", id, g, w)
					}
				}
				if len(samples) != len(infos) {
					t.Fatalf("1 rank: %d samples for %d steps", len(samples), len(infos))
				}
				for k, info := range infos {
					if samples[k].StepReport != info.StepReport {
						t.Errorf("1 rank: step %d reports %+v, serial %+v", k, samples[k].StepReport, info.StepReport)
					}
				}

				end4, _ := parityParallel(t, cfg, ps.Clone(), 4, paritySteps)
				got4 := statesByID(end4)
				if len(got4) != len(want) {
					t.Fatalf("4 ranks: %d particles, want %d", len(got4), len(want))
				}
				worst := 0.0
				for id, w := range want {
					g, ok := got4[id]
					if !ok {
						t.Fatalf("4 ranks: particle %d missing", id)
					}
					for k := range w.v {
						if d := math.Abs(g.v[k]-w.v[k]) / (math.Abs(w.v[k]) + 1e-3); d > worst {
							worst = d
						}
					}
					if g.nn != w.nn {
						t.Errorf("4 ranks: particle %d has %d neighbours, serial %d", id, g.nn, w.nn)
					}
				}
				if worst > 1e-8 {
					t.Errorf("4 ranks: worst relative state deviation from serial = %g", worst)
				}
			})
		}
	}
}

// TestChunkedRunEndsSynchronized: the state a distributed run returns is at
// one time level, like the state Synchronize leaves — so a run cut into
// chunks (the server's -checkpoint-every) is the serial engine synchronized
// at the same boundaries, bit for bit, not a run that lost a half-kick at
// each one. Global stepping only: an adaptive controller's growth limit is
// the one piece of state a chunk boundary does not carry on this engine.
func TestChunkedRunEndsSynchronized(t *testing.T) {
	for _, pc := range parityCases[:2] {
		t.Run(pc.name, func(t *testing.T) {
			cfg, ps := pc.gen(sph.IAD)
			sim, err := New(cfg, ps.Clone())
			if err != nil {
				t.Fatal(err)
			}
			for chunk := 0; chunk < 2; chunk++ {
				if _, err := sim.Run(3, 0); err != nil {
					t.Fatal(err)
				}
				sim.Synchronize()
			}
			want := statesByID(sim.PS)

			mid, _ := parityParallel(t, cfg, ps.Clone(), 1, 3)
			end, _ := parityParallel(t, cfg, mid, 1, 3)
			got := statesByID(end)
			for id, w := range want {
				if g := got[id]; g != w {
					t.Fatalf("3+3 steps: particle %d = %+v, serial with Synchronize %+v", id, g, w)
				}
			}
		})
	}
}

// TestSampleCarriesPotential: the conservation sums OnSample delivers are the
// ones Sim.Conservation measures, gravitational potential included — the
// energy-drift track of a self-gravitating job is K+U+W on both engines.
func TestSampleCarriesPotential(t *testing.T) {
	cfg, ps := parityCases[0].gen(sph.IAD)
	sim, err := New(cfg, ps.Clone())
	if err != nil {
		t.Fatal(err)
	}
	var want []conserve.State
	sim.OnStep = func(StepInfo) { want = append(want, sim.Conservation()) }
	if _, err := sim.Run(paritySteps, 0); err != nil {
		t.Fatal(err)
	}
	_, samples := parityParallel(t, cfg, ps.Clone(), 1, paritySteps)
	for k, w := range want {
		g := samples[k].Cons
		if w.Potential >= 0 {
			t.Fatalf("step %d: serial potential %g, want negative", k, w.Potential)
		}
		for _, pair := range [][2]float64{
			{g.Mass, w.Mass}, {g.Kinetic, w.Kinetic}, {g.Internal, w.Internal}, {g.Potential, w.Potential},
			{g.Momentum.Norm(), w.Momentum.Norm()}, {g.AngularMomentum.Norm(), w.AngularMomentum.Norm()},
		} {
			if math.Abs(pair[0]-pair[1]) > 1e-12*math.Abs(pair[1]) {
				t.Errorf("step %d: sample %+v, serial %+v", k, g, w)
				break
			}
		}
	}
}

// TestStepIndependentOfWorkers: which goroutine computes a particle, and in
// what order the fan-out hands out its chunks, does not reach the result.
// Evrard (gravity, IAD) and a periodic Sedov blast end bit-identical for any
// worker count and with the chunks claimed last to first.
func TestStepIndependentOfWorkers(t *testing.T) {
	sedov := func() (Config, *part.Set) {
		cfg, _ := parityCases[1].gen(sph.IAD)
		ps, _, _ := ic.Sedov(11, 40, 1)
		return cfg, ps
	}
	cases := []struct {
		name string
		gen  func() (Config, *part.Set)
	}{
		{"evrard", func() (Config, *part.Set) { return parityCases[0].gen(sph.IAD) }},
		{"sedov", sedov},
	}
	const steps = 6
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			end := func(workers int, reverse bool) uint64 {
				par.ReverseClaims(reverse)
				defer par.ReverseClaims(false)
				cfg, ps := c.gen()
				cfg.SPH.Workers = workers
				sim, err := New(cfg, ps)
				if err != nil {
					t.Fatal(err)
				}
				for range steps {
					if _, err := sim.Step(); err != nil {
						t.Fatal(err)
					}
				}
				return columnsCRC(sim.PS)
			}
			want := end(1, false)
			for _, run := range []struct {
				workers int
				reverse bool
			}{{2, false}, {3, false}, {8, false}, {3, true}} {
				if got := end(run.workers, run.reverse); got != want {
					t.Errorf("%d workers (reverse claims %v): columns %016x, one worker %016x",
						run.workers, run.reverse, got, want)
				}
			}
		})
	}
}
