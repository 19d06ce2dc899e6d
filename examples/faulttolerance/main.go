// Fault tolerance demo (paper Table 4 features): run an Evrard collapse
// with checkpointing, inject a silent bit flip,
// catch it with the SDC detector suite, and recover by restoring the last
// valid checkpoint. Exactly the "checkpoint/restart + silent data
// corruption detection" loop the mini-app commits to.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/conserve"
	"repro/internal/core"
	"repro/internal/eos"
	"repro/internal/ft"
	"repro/internal/gravity"
	"repro/internal/ic"
	"repro/internal/kernel"
	"repro/internal/sph"
	"repro/internal/ts"
)

func newSim() *core.Sim {
	ev := ic.DefaultEvrard(4000)
	ev.NNeighbors = 50
	ps, pbc, box := ev.Generate(nil)
	cfg := core.Config{
		SPH: sph.Params{
			Kernel: kernel.NewSinc(5), EOS: eos.NewIdealGas(5.0 / 3.0),
			NNeighbors: 50, Gradients: sph.IAD, Volumes: sph.GeneralizedVolume,
			PBC: pbc, Box: box,
		},
		Gravity: true, GravOrder: gravity.Quadrupole, Theta: 0.6, Eps: 0.02, G: 1,
		Stepping: ts.Global,
	}
	sim, err := core.New(cfg, ps)
	if err != nil {
		log.Fatal(err)
	}
	return sim
}

func main() {
	dir, err := os.MkdirTemp("", "sphexa-ft")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	ck := &ft.Checkpointer{Dir: dir}
	fmt.Printf("checkpointing every step (Daly interval for a 0.5 s write and a 4 h MTBF: %.0f s)\n",
		ft.DalyInterval(0.5, 4*3600))

	sim := newSim()
	// Step once so the gravitational potential diagnostic exists, then arm
	// the detectors.
	if _, err := sim.Step(); err != nil {
		log.Fatal(err)
	}
	ref := sim.Conservation()
	suite := &ft.Suite{Detectors: []ft.Detector{
		ft.StructuralDetector{},
		&ft.ConservationDetector{Ref: ref, Tolerance: 0.2},
	}}

	// Run five healthy steps, checkpointing each.
	for i := 0; i < 5; i++ {
		if _, err := sim.Step(); err != nil {
			log.Fatal(err)
		}
		sim.Synchronize()
		if err := ck.Write(sim.StepN, sim.T, sim.PS); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("ran to step %d with checkpoints; E=%.6f\n", sim.StepN, sim.Conservation().Total())

	// Silent fault: one DRAM bit flips in a particle mass (exponent bit).
	fmt.Println("injecting bit flip into particle 1234 mass (bit 62)...")
	ft.InjectBitFlip(sim.PS, 1234, 2, 62)

	v := suite.Check(sim.PS, sim.Conservation())
	if !v.Corrupted {
		log.Fatal("SDC escaped detection")
	}
	fmt.Printf("detected by %q: %s\n", v.Detector, v.Detail)

	// Recovery: restore the newest valid checkpoint and resume.
	set, step, simTime, err := ck.Restore()
	if err != nil {
		log.Fatal(err)
	}
	restored, err := core.New(sim.Cfg, set)
	if err != nil {
		log.Fatal(err)
	}
	restored.StepN, restored.T = step, simTime
	fmt.Printf("restored step %d (t=%.5f); resuming...\n", step, simTime)
	for i := 0; i < 3; i++ {
		if _, err := restored.Step(); err != nil {
			log.Fatal(err)
		}
	}
	st := restored.Conservation()
	if v := suite.Check(restored.PS, st); v.Corrupted {
		log.Fatalf("restored run still corrupted: %s", v.Detail)
	}
	drift := conserve.Compare(ref, st)
	fmt.Printf("resumed cleanly to step %d; drift since reference: %s\n", restored.StepN, drift)

	// Replication-based detection: duplicate a state, corrupt one copy.
	a := restored.PS
	b := a.Clone()
	ft.InjectBitFlip(b, 7, 3, 33)
	var rd ft.ReplicaDetector
	verdict := rd.CompareReplicas([]uint64{a.Checksum(), b.Checksum()})
	fmt.Printf("replication check on duplicated state: corrupted=%v (%s)\n",
		verdict.Corrupted, verdict.Detail)
	if !verdict.Corrupted {
		log.Fatal("replication missed the divergence")
	}
	fmt.Println("ok: detect, restore, resume — the full fault-tolerance loop")
}
