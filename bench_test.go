// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation (one benchmark per artifact — see README, "Scaling
// studies" and "Trace export") and the design-choice ablations. Benchmarks
// print the reproduced rows/series via b.Log; run with
//
//	go test -bench=. -benchmem
//
// The Fig benchmarks execute reduced particle counts with work modeled to
// the paper's 1e6 (see internal/experiments); EXPERIMENTS.md records the
// full-fidelity numbers.
package repro

import (
	"testing"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/eos"
	"repro/internal/experiments"
	"repro/internal/ft"
	"repro/internal/gravity"
	"repro/internal/ic"
	"repro/internal/kernel"
	"repro/internal/sfc"
	"repro/internal/sph"
	"repro/internal/tree"
	"repro/internal/ts"
)

// benchOpt keeps benchmark iterations affordable while preserving the
// modeled 1e6-particle workload.
func benchOpt(cores ...int) experiments.Options {
	return experiments.Options{
		N:     experiments.PaperN,
		ExecN: 8000,
		Steps: 2,
		Cores: cores,
	}
}

// --- Figures 1-3: strong scaling ---------------------------------------------

func benchScaling(b *testing.B, code string, test codes.Test, machine string, cores ...int) {
	b.Helper()
	var last *experiments.ScalingResult
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunScaling(code, test, []string{machine}, benchOpt(cores...))
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	b.Log("\n" + last.Format())
}

func BenchmarkFig1aSquareSPHYNXDaint(b *testing.B) {
	benchScaling(b, "sphynx", codes.SquarePatch, "daint", 12, 48, 192, 384)
}

func BenchmarkFig1aSquareSPHYNXMareNostrum(b *testing.B) {
	benchScaling(b, "sphynx", codes.SquarePatch, "marenostrum", 12, 48, 192, 384)
}

func BenchmarkFig1bEvrardSPHYNXDaint(b *testing.B) {
	benchScaling(b, "sphynx", codes.Evrard, "daint", 12, 48, 192, 384)
}

func BenchmarkFig1bEvrardSPHYNXMareNostrum(b *testing.B) {
	benchScaling(b, "sphynx", codes.Evrard, "marenostrum", 12, 48, 192, 384)
}

func BenchmarkFig2aSquareChaNGaDaint(b *testing.B) {
	benchScaling(b, "changa", codes.SquarePatch, "daint", 12, 96, 384, 1536)
}

func BenchmarkFig2bEvrardChaNGaDaint(b *testing.B) {
	benchScaling(b, "changa", codes.Evrard, "daint", 12, 96, 384, 1536)
}

func BenchmarkFig3SquareSPHflowDaint(b *testing.B) {
	benchScaling(b, "sphflow", codes.SquarePatch, "daint", 12, 96, 768)
}

func BenchmarkFig3SquareSPHflowMareNostrum(b *testing.B) {
	benchScaling(b, "sphflow", codes.SquarePatch, "marenostrum", 12, 96, 768)
}

// --- Figure 4: Extrae-style trace + POP metrics -------------------------------

func BenchmarkFig4Trace(b *testing.B) {
	var res *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.Logf("\n%s\nload balance %.3f, comm efficiency %.3f",
		res.Timeline, res.Metrics.LoadBalance, res.Metrics.CommEfficiency)
}

// BenchmarkPOPEfficiencySweep is §5.2's sweep: the POP columns of the SPHYNX
// square-patch ladder from 48 to 192 cores.
func BenchmarkPOPEfficiencySweep(b *testing.B) {
	benchScaling(b, "sphynx", codes.SquarePatch, "daint", 48, 192)
}

// BenchmarkWeakScaling runs the paper's declared future-work experiment:
// fixed particles-per-core while the machine grows.
func BenchmarkWeakScaling(b *testing.B) {
	var last *experiments.ScalingResult
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunWeakScaling("sphynx", codes.SquarePatch, []string{"daint"}, 5000,
			benchOpt(12, 48, 192))
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	b.Log("\n" + last.Format())
}

// --- Tables 1-5 ----------------------------------------------------------------

func BenchmarkTables(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		for n := 1; n <= 5; n++ {
			t, err := experiments.Table(n)
			if err != nil {
				b.Fatal(err)
			}
			out += t
		}
		out = out[:0]
	}
	t1, _ := experiments.Table(1)
	b.Log("\n" + t1)
}

// --- Ablations --------------------------------------------------------------------

// evrardBenchSim builds a small Evrard run with the given gradient mode,
// volume mode and gravity order.
func evrardBenchSim(b *testing.B, g sph.GradientMode, v sph.VolumeMode, ord gravity.Order) *core.Sim {
	b.Helper()
	ev := ic.DefaultEvrard(8000)
	ev.NNeighbors = 60
	ps, pbc, box := ev.Generate()
	cfg := core.Config{
		SPH: sph.Params{
			Kernel: kernel.NewSinc(5), EOS: eos.NewIdealGas(5.0 / 3.0),
			NNeighbors: 60, Gradients: g, Volumes: v, PBC: pbc, Box: box,
		},
		Gravity: true, GravOrder: ord, Theta: 0.6, Eps: 0.02, G: 1,
		Stepping: ts.Global,
	}
	sim, err := core.New(cfg, ps)
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

// BenchmarkAblationGradients compares the IAD gradient formulation (SPHYNX)
// against plain kernel derivatives (ChaNGa/SPH-flow).
func BenchmarkAblationGradients(b *testing.B) {
	for _, g := range []sph.GradientMode{sph.KernelDerivatives, sph.IAD} {
		b.Run(g.String(), func(b *testing.B) {
			sim := evrardBenchSim(b, g, sph.StandardVolume, gravity.Quadrupole)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationVolumeElements compares generalized (SPHYNX) vs standard
// volume elements.
func BenchmarkAblationVolumeElements(b *testing.B) {
	for _, v := range []sph.VolumeMode{sph.StandardVolume, sph.GeneralizedVolume} {
		b.Run(v.String(), func(b *testing.B) {
			sim := evrardBenchSim(b, sph.IAD, v, gravity.Quadrupole)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMultipoleOrder sweeps the gravity expansion order
// (monopole / SPHYNX's 4-pole / ChaNGa's 16-pole) against direct summation.
func BenchmarkAblationMultipoleOrder(b *testing.B) {
	ev := ic.DefaultEvrard(8000)
	ps, _, _ := ev.Generate()
	tr := tree.Build(ps.Pos, tree.Options{})
	targets := make([]int32, ps.NLocal)
	for i := range targets {
		targets[i] = int32(i)
	}
	for _, ord := range []gravity.Order{gravity.Monopole, gravity.Quadrupole, gravity.Hexadecapole} {
		b.Run(ord.String(), func(b *testing.B) {
			s := gravity.NewSolver(tr, ps.Pos, ps.Mass)
			s.Order = ord
			s.Theta = 0.6
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Accelerations(targets, 0)
			}
		})
	}
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gravity.Direct(ps.Pos, ps.Mass, 1, 0, 0)
		}
	})
}

// BenchmarkAblationNeighborSearch compares the octree walk against brute
// force for one full neighbor sweep.
func BenchmarkAblationNeighborSearch(b *testing.B) {
	ev := ic.DefaultEvrard(8000)
	ps, pbc, box := ev.Generate()
	tr := tree.Build(ps.Pos, tree.Options{Box: box, PBC: pbc})
	b.Run("octree", func(b *testing.B) {
		buf := make([]tree.Hit, 0, 256)
		for i := 0; i < b.N; i++ {
			for k := 0; k < ps.NLocal; k++ {
				buf = tr.BallSearch(ps.Pos[k], 2*ps.H[k], buf[:0])
			}
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		buf := make([]tree.Hit, 0, 256)
		for i := 0; i < b.N; i++ {
			// Brute force is O(N^2); sample 1/16 of the queries and report
			// per-op time on the same scale.
			for k := 0; k < ps.NLocal; k += 16 {
				buf = tree.BruteForceBallSearch(ps.Pos, pbc, ps.Pos[k], 2*ps.H[k], buf[:0])
			}
		}
	})
}

// BenchmarkAblationDecomposition compares ORB vs Morton vs Hilbert
// decomposition of a clustered distribution.
func BenchmarkAblationDecomposition(b *testing.B) {
	ev := ic.DefaultEvrard(100000)
	ps, _, box := ev.Generate()
	for _, m := range []domain.Method{domain.ORB, domain.MortonSFC, domain.HilbertSFC} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				domain.Decompose(m, ps, box, 64, nil)
			}
		})
	}
}

// BenchmarkAblationCheckpointInterval compares the Daly-optimal checkpoint
// cadence against naive fixed cadences by total overhead (checkpoint cost +
// expected rework) over a modeled failure process.
func BenchmarkAblationCheckpointInterval(b *testing.B) {
	// Analytic waste model: overhead(T) = C/T + T/(2*MTBF), per unit time.
	const c = 30.0      // checkpoint cost, seconds
	const mtbf = 7200.0 // two hours
	waste := func(interval float64) float64 {
		return c/interval + interval/(2*mtbf)
	}
	daly := ft.DalyInterval(c, mtbf)
	cases := map[string]float64{
		"daly-optimal": daly,
		"fixed-60s":    60,
		"fixed-3600s":  3600,
	}
	for name, interval := range cases {
		b.Run(name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += waste(interval)
			}
			_ = sink
			b.ReportMetric(waste(interval)*100, "%overhead")
		})
	}
}

// BenchmarkAblationSFCSort measures the radix key sort on every core against
// one worker (the paper's phase-A parallelization finding).
func BenchmarkAblationSFCSort(b *testing.B) {
	ev := ic.DefaultEvrard(200000)
	ps, _, box := ev.Generate()
	keys := sfc.Keys(sfc.Morton, box, ps.Pos[:ps.NLocal])
	b.Run("parallel-radix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sfc.ParallelSortByKey(keys, 0)
		}
	})
	b.Run("serial-radix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sfc.ParallelSortByKey(keys, 1)
		}
	})
}

// BenchmarkEndToEndStep is the headline single-node benchmark: one full
// Algorithm 1 time-step of the SPHYNX configuration on the Evrard collapse.
func BenchmarkEndToEndStep(b *testing.B) {
	sim := evrardBenchSim(b, sph.IAD, sph.GeneralizedVolume, gravity.Quadrupole)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
