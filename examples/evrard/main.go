// Evrard collapse (paper §5.1, Figure 1b/2b workload): an initially static
// isothermal gas sphere with rho ~ 1/r collapses under self-gravity until a
// central shock forms. This example runs the SPHYNX configuration (sinc
// kernel, IAD, generalized volume elements, quadrupole gravity) and prints
// the energy budget evolution — the classic virialization diagnostic.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/eos"
	"repro/internal/gravity"
	"repro/internal/ic"
	"repro/internal/kernel"
	"repro/internal/sph"
	"repro/internal/ts"
)

func main() {
	ev := ic.DefaultEvrard(8000)
	ev.NNeighbors = 60
	ps, pbc, box := ev.Generate(nil)
	fmt.Printf("Evrard collapse: %d particles, R=%g, M=%g, u0=%g\n",
		ps.NLocal, ev.R, ev.M, ev.U0)

	cfg := core.Config{
		SPH: sph.Params{
			Kernel:     kernel.NewSinc(5),
			EOS:        eos.NewIdealGas(5.0 / 3.0),
			NNeighbors: 60,
			Gradients:  sph.IAD,
			Volumes:    sph.GeneralizedVolume,
			PBC:        pbc,
			Box:        box,
		},
		Gravity:   true,
		GravOrder: gravity.Quadrupole, // SPHYNX's "4-pole" (Table 1)
		Theta:     0.6,
		Eps:       0.02,
		G:         1,
		Stepping:  ts.Global,
	}
	sim, err := core.New(cfg, ps)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%6s %12s %14s %14s %14s %14s\n", "step", "t", "E_kin", "E_int", "E_pot", "E_tot")
	for i := 0; i < 20; i++ {
		if _, err := sim.Step(); err != nil {
			log.Fatal(err)
		}
		st := sim.Conservation()
		fmt.Printf("%6d %12.5f %14.6f %14.6f %14.6f %14.6f\n",
			i, sim.T, st.Kinetic, st.Internal, st.Potential, st.Total())
	}

	st := sim.Conservation()
	if st.Kinetic <= 0 {
		log.Fatal("collapse did not start")
	}
	fmt.Printf("\ncollapse underway: kinetic energy %.4f gained from potential well %.4f\n",
		st.Kinetic, st.Potential)
}
