package core

import (
	"fmt"
	"testing"

	"repro/internal/domain"
	"repro/internal/part"
	"repro/internal/sph"
	"repro/internal/vec"
)

// timeOrder holds, per parity case, the coarsest fixed step dt (under the
// CFL limit of every step of the run) and the error ratios of the three
// halvings dt → dt/2 → dt/4 → dt/8 as the engine measures them today,
// serially and on 2 ranks alike. Pure first order reads 2.14, 2.33, 3.0 and
// pure second order 4.06, 4.27, 5.0: all three cases are first order
// (ROADMAP 24). Each ratio is held to within timeOrderSlack times its value
// either way, so a change that gains an order fails here and raises these
// rows.
var timeOrder = map[string]struct {
	dt     float64
	ratios [3]float64
}{
	"evrard-gravity": {5e-3, [3]float64{1.583, 1.962, 2.761}},
	"sedov-periodic": {5e-3, [3]float64{2.120, 2.613, 2.604}},
	"square-patch":   {2e-4, [3]float64{2.018, 2.106, 3.217}},
}

const (
	timeOrderSteps = 8 // coarse steps a run takes
	timeOrderSlack = 1.15
)

// TestTimeOrder measures the integrator's order in dt. Each parity case (IAD)
// runs the same time at dt, dt/2, dt/4 and dt/8, fixed through MaxDT and
// binding at every step, and each run's end positions are compared per ID
// with a dt/16 run's by the maximum distance (minimum image).
func TestTimeOrder(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("31 runs per case and driver; not under -short or the race detector")
	}
	for _, pc := range parityCases {
		for _, ranks := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%d ranks", pc.name, ranks), func(t *testing.T) {
				cfg, ps := pc.gen(sph.IAD)
				want := timeOrder[pc.name]
				ref := timeOrderEnd(t, cfg, ps, ranks, want.dt/16, 16*timeOrderSteps)
				var errs [4]float64
				for k, div := range []int{1, 2, 4, 8} {
					for id, p := range timeOrderEnd(t, cfg, ps, ranks, want.dt/float64(div), div*timeOrderSteps) {
						errs[k] = max(errs[k], cfg.SPH.PBC.Wrap(p.Sub(ref[id])).Norm())
					}
				}
				for k, w := range want.ratios {
					if got := errs[k] / errs[k+1]; !(got >= w/timeOrderSlack && got <= w*timeOrderSlack) {
						t.Errorf("error ratio dt/%d → dt/%d is %.3f, measured %.3f (errors %.3g)", 1<<k, 2<<k, got, w, errs)
					}
				}
			})
		}
	}
}

// timeOrderEnd runs steps steps of a fixed dt on the serial engine (ranks 1)
// or on Morton ranks and returns the synchronized end positions indexed by
// particle ID. A step that did not take dt fails the test: the order measured
// would not be the integrator's.
func timeOrderEnd(t *testing.T, cfg Config, ps *part.Set, ranks int, dt float64, steps int) []vec.V3 {
	t.Helper()
	cfg.MaxDT = dt
	var end *part.Set
	var dts []float64
	if ranks == 1 {
		sim, err := New(cfg, ps.Clone())
		if err != nil {
			t.Fatal(err)
		}
		infos, err := sim.Run(steps, 0)
		if err != nil {
			t.Fatal(err)
		}
		sim.Synchronize()
		end = sim.PS
		for _, in := range infos {
			dts = append(dts, in.DT)
		}
	} else {
		var samples []StepStats
		end, _, samples = parityRun(t, cfg, ps.Clone(), layout{ranks: ranks, decomp: domain.MortonSFC}, steps)
		for _, s := range samples {
			dts = append(dts, s.DT)
		}
	}
	for k, got := range dts {
		if got != dt {
			t.Fatalf("dt %g: step %d took %g", dt, k, got)
		}
	}
	pos := make([]vec.V3, end.NLocal)
	for i := range end.NLocal {
		pos[end.ID[i]] = end.Pos[i]
	}
	return pos
}
