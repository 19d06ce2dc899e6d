package core

import (
	"runtime"
	"testing"

	"repro/internal/domain"
	"repro/internal/part"
	"repro/internal/perfmodel"
	"repro/internal/sph"
)

// Bounds of one steady-state step of the evrard parity case (1500
// particles, IAD, quadrupole gravity). Measured on linux/amd64, Go 1.24: a
// Sim.Step with four workers makes 48 allocations of 2.0 KB in all, one
// rank's step 44-45 of 1.5 KB: par.Range's state and goroutines, the
// closures handed to it, the collectives' messages and StepInfo's map. The
// bounds leave 8 allocations and 2 KB of head-room.
const (
	maxStepAllocs = 56
	maxStepBytes  = 4 << 10
)

// TestStepSteadyStateAllocs: once its buffers have grown to the problem, a
// step allocates only small fixed overheads, on both drivers.
func TestStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg, ps := parityCases[0].gen(sph.IAD)
	cfg.SPH.Workers = 4
	sim, err := New(cfg, ps.Clone())
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	step()
	step()
	allocs := testing.AllocsPerRun(5, step)
	bytes := bytesPerRun(5, step)
	t.Logf("Sim.Step: %.0f allocations, %.1f KB", allocs, bytes/1024)
	if allocs > maxStepAllocs || bytes > maxStepBytes {
		t.Errorf("Sim.Step allocates %.0f times, %.0f bytes; want at most %d and %d", allocs, bytes, maxStepAllocs, maxStepBytes)
	}

	// One rank's step is the difference between a run of six steps and a
	// run of two, over four steps: set-up and the first steps' growth cancel.
	run := func(steps int) func() {
		return func() {
			_, res, err := RunParallelCapture(ParallelConfig{
				Core: cfg, Machine: perfmodel.PizDaint(), Cores: 12, RanksPerNode: 1,
				Decomp: domain.MortonSFC, Cost: testCost(), Steps: steps,
			}, ps.Clone())
			if err != nil || res.Ranks != 1 {
				t.Fatalf("run: %v on %d ranks, want one", err, res.Ranks)
			}
		}
	}
	allocs = (testing.AllocsPerRun(2, run(6)) - testing.AllocsPerRun(2, run(2))) / 4
	bytes = (bytesPerRun(2, run(6)) - bytesPerRun(2, run(2))) / 4
	t.Logf("rank step: %.0f allocations, %.1f KB", allocs, bytes/1024)
	if allocs > maxStepAllocs || bytes > maxStepBytes {
		t.Errorf("a rank's step allocates %.0f times, %.0f bytes; want at most %d and %d", allocs, bytes, maxStepAllocs, maxStepBytes)
	}
}

// bytesPerRun is testing.AllocsPerRun for the bytes: the mean heap bytes
// allocated by one call of f, after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// keptVsDroppedSteps covers the list's growth and spills on the lattice
// initial conditions (their neighbour counts climb for the first steps).
const keptVsDroppedSteps = 12

// TestKeptScratchEqualsDropped: a stepper that keeps its scratch from step
// to step computes exactly what one that starts every step afresh does — no
// buffer's old contents reach a result.
func TestKeptScratchEqualsDropped(t *testing.T) {
	for _, pc := range parityCases[:2] {
		t.Run(pc.name, func(t *testing.T) {
			cfg, ps := pc.gen(sph.IAD)
			cfg.SPH.Workers = 3
			end := func(drop bool) *part.Set {
				sim, err := New(cfg, ps.Clone())
				if err != nil {
					t.Fatal(err)
				}
				for range keptVsDroppedSteps {
					if _, err := sim.Step(); err != nil {
						t.Fatal(err)
					}
					if drop {
						sim.st.dropScratch()
					}
				}
				return sim.PS
			}
			if kept, dropped := columnsCRC(end(false)), columnsCRC(end(true)); kept != dropped {
				t.Errorf("columns %016x with the scratch kept, %016x with it dropped", kept, dropped)
			}
		})
	}
	t.Run(parityCases[2].name+"/2 ranks", func(t *testing.T) {
		cfg, ps := parityCases[2].gen(sph.IAD)
		end := func(drop bool) *part.Set {
			end, res, err := RunParallelCapture(ParallelConfig{
				Core: cfg, Machine: perfmodel.PizDaint(), Cores: 24, RanksPerNode: 1,
				Decomp: domain.MortonSFC, Cost: testCost(), Steps: keptVsDroppedSteps,
				dropScratch: drop,
			}, ps.Clone())
			if err != nil || res.Ranks != 2 {
				t.Fatalf("run: %v on %d ranks, want 2", err, res.Ranks)
			}
			return end
		}
		if kept, dropped := columnsCRC(end(false)), columnsCRC(end(true)); kept != dropped {
			t.Errorf("columns %016x with the scratch kept, %016x with it dropped", kept, dropped)
		}
	})
}
