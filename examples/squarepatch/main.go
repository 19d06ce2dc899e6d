// Rotating square patch (paper §5.1, Figures 1a/2a/3 workload): a
// free-surface fluid square in rigid rotation, periodic along Z, evolved
// with the SPH-flow style configuration (Wendland C2, kernel derivatives,
// weakly-compressible Tait EOS, adaptive stepping). The test is demanding
// because its negative-pressure regions excite the tensile instability; the
// run reports angular-momentum conservation and the pressure extremes.
package main

import (
	"fmt"
	"log"

	"repro/internal/conserve"
	"repro/internal/core"
	"repro/internal/eos"
	"repro/internal/ic"
	"repro/internal/kernel"
	"repro/internal/sph"
	"repro/internal/ts"
)

func main() {
	sp := ic.DefaultSquarePatch(13824) // 24^3
	sp.NNeighbors = 60
	ps, pbc, box := sp.Generate(nil)
	fmt.Printf("rotating square patch: %d particles (%d^2 x %d layers), omega=%g rad/s\n",
		ps.NLocal, sp.NSide, sp.NLayers, sp.Omega)

	// Show the analytic initial pressure field of §5.1 (the double Poisson
	// series): its center and a tensile (negative) sample.
	fmt.Printf("P0(center) = %+.4f, P0(0.2,0.8) = %+.4f (negative regions drive the tensile instability)\n",
		sp.Pressure(sp.L/2, sp.L/2), sp.Pressure(0.2, 0.8))

	cfg := core.Config{
		SPH: sph.Params{
			Kernel:     kernel.NewWendlandC2(),
			EOS:        eos.NewTait(sp.Rho0, sp.SoundSpeed, 7),
			NNeighbors: 60,
			PBC:        pbc,
			Box:        box,
		},
		Stepping: ts.Adaptive,
	}
	sim, err := core.New(cfg, ps)
	if err != nil {
		log.Fatal(err)
	}

	ref := sim.Conservation()
	fmt.Printf("%6s %12s %14s %14s %14s\n", "step", "dt", "E_kin", "L_z", "P range")
	for i := 0; i < 20; i++ {
		info, err := sim.Step()
		if err != nil {
			log.Fatal(err)
		}
		st := sim.Conservation()
		pmin, pmax := ps.P[0], ps.P[0]
		for _, p := range ps.P[:ps.NLocal] {
			if p < pmin {
				pmin = p
			}
			if p > pmax {
				pmax = p
			}
		}
		fmt.Printf("%6d %12.3e %14.6f %14.6f [%+.3f, %+.3f]\n",
			info.Step, info.DT, st.Kinetic, st.AngularMomentum.Z, pmin, pmax)
	}

	drift := conserve.Compare(ref, sim.Conservation())
	fmt.Printf("\nconservation drift after 20 steps: %s\n", drift)
	if drift.AngMom > 0.01 {
		log.Fatalf("angular momentum drift %g too large", drift.AngMom)
	}
	fmt.Println("ok: the patch rotates with conserved angular momentum")
}
