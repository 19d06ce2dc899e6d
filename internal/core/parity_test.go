package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
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
		ps, pbc, box := ev.Generate(nil)
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
		ps, pbc, box := ic.Sedov(nil, 10, 40, 1)
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
		ps, pbc, box := sp.Generate(nil)
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

// layout is how a distributed run is laid out: the rank count, the
// decomposition, and whether the ranks rebalance after every step.
type layout struct {
	ranks   int
	decomp  domain.Method
	dynamic bool
}

func (l layout) String() string {
	s := fmt.Sprintf("%d %s ranks", l.ranks, l.decomp)
	if l.dynamic {
		s += " rebalanced"
	}
	return s
}

// parityRun runs the distributed engine laid out as l over the Piz Daint
// model (12 cores a node, one rank a node) and returns the merged end state,
// the run's result and every step's reduced sample.
func parityRun(t *testing.T, core Config, ps *part.Set, l layout, steps int) (*part.Set, *ParallelResult, []StepStats) {
	t.Helper()
	var samples []StepStats
	end, res, err := RunParallelCapture(ParallelConfig{
		Core:         core,
		Machine:      perfmodel.PizDaint(),
		Cores:        12 * l.ranks,
		RanksPerNode: 1,
		Decomp:       l.decomp,
		DynamicLB:    l.dynamic,
		Cost:         testCost(),
		Steps:        steps,
		OnSample:     func(st StepStats) { samples = append(samples, st) },
	}, ps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks != l.ranks || res.StepsCompleted != steps {
		t.Fatalf("ran %d steps on %d ranks, want %d on %d", res.StepsCompleted, res.Ranks, steps, l.ranks)
	}
	return end, res, samples
}

// parityParallel is parityRun on ranks Morton ranks, without the result.
func parityParallel(t *testing.T, core Config, ps *part.Set, ranks, steps int) (*part.Set, []StepStats) {
	t.Helper()
	end, _, samples := parityRun(t, core, ps, layout{ranks: ranks, decomp: domain.MortonSFC}, steps)
	return end, samples
}

// rankLayouts are the layouts a distributed run must not be able to tell
// apart from the serial run: a decomposition only partitions the work.
var rankLayouts = func() []layout {
	var ls []layout
	for _, m := range []domain.Method{domain.MortonSFC, domain.HilbertSFC} {
		for _, n := range []int{2, 3, 8, 16} {
			ls = append(ls, layout{ranks: n, decomp: m})
		}
	}
	return append(ls, layout{4, domain.HilbertSFC, true}, layout{8, domain.HilbertSFC, true})
}()

// TestEnginesAgree is the contract the two drivers of Algorithm 1 are kept
// under: on one rank the simulated-MPI engine is the shared-memory engine
// bit for bit — final state and every step's reported extrema — and at
// every rank count, under Morton and Hilbert decompositions and with
// dynamic load balancing, every particle's position, velocity, u, h and
// neighbour count still equal the serial run's bit for bit. Only the
// storage order of the merged set differs.
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

				for _, l := range rankLayouts {
					end, _, _ := parityRun(t, cfg, ps.Clone(), l, paritySteps)
					got := statesByID(end)
					if len(got) != len(want) {
						t.Errorf("%s: %d particles, want %d", l, len(got), len(want))
						continue
					}
					differ, first := 0, int64(-1)
					for id, w := range want {
						if g, ok := got[id]; !ok || g != w {
							if differ++; first < 0 || id < first {
								first = id
							}
						}
					}
					if differ > 0 {
						t.Errorf("%s: %d of %d particles differ from the serial run; particle %d = %+v, serial %+v",
							l, differ, len(want), first, got[first], want[first])
					}
				}
			})
		}
	}
}

// TestRankTimingPinned pins, bit for bit, the modeled clocks of each parity
// case under both gradient modes on 4 Morton ranks: every rank's Compute,
// Halo, Collective and Seconds, and the run's Seconds. TestEnginesAgree
// cannot see them — no particle's state reads a clock — so this is what
// keeps a rewrite of the simulated-MPI runtime from moving the scaling
// figures unnoticed.
func TestRankTimingPinned(t *testing.T) {
	want := map[string]uint64{
		"evrard-gravity/iad":                0x3e3fd5db4580fa48,
		"evrard-gravity/kernel-derivatives": 0xfe7001c94790bda5,
		"sedov-periodic/iad":                0x8c810e8f980eba69,
		"sedov-periodic/kernel-derivatives": 0xf034a85ae82bdddf,
		"square-patch/iad":                  0xa7f8e2f468855d38,
		"square-patch/kernel-derivatives":   0x25dd73a7e300cbe7,
	}
	for _, pc := range parityCases {
		for _, grad := range []sph.GradientMode{sph.IAD, sph.KernelDerivatives} {
			cfg, ps := pc.gen(grad)
			_, res, _ := parityRun(t, cfg, ps, layout{ranks: 4, decomp: domain.MortonSFC}, paritySteps)
			key := pc.name + "/" + grad.String()
			if got := timingCRC(res.Timing); got != want[key] {
				t.Errorf("%s: timing %#016x, pinned %#016x", key, got, want[key])
			}
		}
	}
}

// timingCRC fingerprints a run's modeled clocks bit for bit.
func timingCRC(rt *RunTiming) uint64 {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	clocks := []float64{rt.Seconds}
	for _, r := range rt.PerRank {
		clocks = append(clocks, r.Compute, r.Halo, r.Collective, r.Seconds)
	}
	_ = binary.Write(h, binary.LittleEndian, clocks)
	return h.Sum64()
}

// TestChunkedRunEndsSynchronized: the state a distributed run returns is at
// one time level, like the state Synchronize leaves — so a run cut into
// chunks (runloop.DefaultChunkSteps) is the serial engine synchronized
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
		ps, _, _ := ic.Sedov(nil, 11, 40, 1)
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
