// Quickstart: the smallest complete SPH-EXA mini-app program. It builds a
// periodic uniform gas cube, runs ten time-steps of the full Algorithm 1
// workflow (tree, neighbors, density, EOS, forces, update), and verifies
// energy conservation — the place to start reading the public API.
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
	// 1. Initial conditions: a 12^3 unit-density cube, fully periodic.
	ps, pbc, box := ic.UniformCube(nil, 12, 60)

	// 2. Physics configuration: M4 cubic-spline kernel, ideal-gas EOS,
	//    standard volume elements, kernel-derivative gradients.
	cfg := core.Config{
		SPH: sph.Params{
			Kernel:     kernel.NewM4(),
			EOS:        eos.NewIdealGas(5.0 / 3.0),
			NNeighbors: 60,
			PBC:        pbc,
			Box:        box,
		},
		Stepping: ts.Global,
	}

	sim, err := core.New(cfg, ps)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Run and watch the conserved quantities.
	before := sim.Conservation()
	fmt.Printf("initial: mass=%.4f E=%.6f\n", before.Mass, before.Total())
	infos, err := sim.Run(10, 0)
	if err != nil {
		log.Fatal(err)
	}
	after := sim.Conservation()
	drift := conserve.Compare(before, after)
	fmt.Printf("after %d steps (t=%.4f): E=%.6f\n", len(infos), sim.T, after.Total())
	fmt.Printf("conservation drift: %s\n", drift)
	if drift.Energy > 1e-6 {
		log.Fatalf("energy drift %g too large for a static cube", drift.Energy)
	}
	fmt.Println("ok: static gas cube stays in equilibrium with conserved energy")
}
