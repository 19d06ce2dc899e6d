package ft

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eos"
	"repro/internal/ic"
	"repro/internal/kernel"
	"repro/internal/sph"
	"repro/internal/ts"
)

// TestMassCheckIsExact: a flip of mantissa bit 30 of one particle's mass
// moves the total mass of a 1000-particle Sedov run by ~2e-10 relative,
// far inside the CLI's conservation tolerance of 0.2. The detector's mass
// branch, which does not scale with that tolerance, flags it; the clean run
// passes every step.
func TestMassCheckIsExact(t *testing.T) {
	const steps, flipAt = 10, 3
	run := func(flip bool) Verdict {
		ps, pbc, box := ic.Sedov(nil, 10, 40, 1)
		sim, err := core.New(core.Config{
			SPH: sph.Params{
				Kernel: kernel.NewM4(), EOS: eos.NewIdealGas(5.0 / 3.0),
				NNeighbors: 40, Gradients: sph.IAD, PBC: pbc, Box: box,
			},
			Stepping: ts.Global,
		}, ps)
		if err != nil {
			t.Fatal(err)
		}
		var suite *Suite
		for step := 1; step <= steps; step++ {
			if _, err := sim.Step(); err != nil {
				t.Fatal(err)
			}
			if flip && step == flipAt {
				InjectBitFlip(sim.PS, 123, 2, 30)
			}
			st := sim.Conservation()
			if suite == nil {
				suite = &Suite{Detectors: []Detector{
					StructuralDetector{},
					&ConservationDetector{Ref: st, Tolerance: 0.2},
				}}
			}
			if v := suite.Check(sim.PS, st); v.Corrupted {
				return v
			}
		}
		return Verdict{}
	}
	if v := run(false); v.Corrupted {
		t.Fatalf("clean run flagged by %s: %s", v.Detector, v.Detail)
	}
	v := run(true)
	if !v.Corrupted || !strings.HasPrefix(v.Detail, "mass drift") {
		t.Fatalf("mass bit flip verdict %+v, want the mass branch of the conservation detector", v)
	}
	t.Logf("flip flagged: %s", v.Detail)
}
