package experiments

import (
	"fmt"
	"strings"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/perfmodel"
)

// Weak scaling: the paper's §5.2 notes "A factor that has not yet been
// explored is the weak scaling of these codes, which is usually the regime
// in which they operate in production runs. This is part of ongoing
// analysis work." — this harness is that analysis: the per-core particle
// load is held fixed while the machine grows, so ideal behavior is a flat
// time-per-step curve.

// WeakPoint is one machine size of a weak-scaling curve.
type WeakPoint struct {
	Cores          int
	Ranks          int
	NModeled       int // total particles at this size
	SecondsPerStep float64
	// Efficiency is t(base)/t(this); 1 = ideal weak scaling.
	Efficiency float64
}

// WeakSeries is a weak-scaling curve.
type WeakSeries struct {
	Code             string
	Test             codes.Test
	Machine          string
	ParticlesPerCore int
	Steps            int
	Points           []WeakPoint
}

// RunWeakScaling grows the modeled problem with the machine at a fixed
// particles-per-core budget (the paper's production regime: ~1e4-1e6
// particles/core). Executed particle counts grow proportionally from
// opt.ExecN at the first core count, capped at 8*opt.ExecN to bound runtime;
// beyond the cap, WorkScale carries the growth.
func RunWeakScaling(codeName string, test codes.Test, machineName string, perCore int, opt Options) (*WeakSeries, error) {
	opt.defaults()
	if perCore <= 0 {
		perCore = opt.N / opt.Cores[len(opt.Cores)-1]
		if perCore < 1000 {
			perCore = 1000
		}
	}
	code, err := codes.ByName(codeName)
	if err != nil {
		return nil, err
	}
	machine, err := perfmodel.ByName(machineName)
	if err != nil {
		return nil, err
	}
	series := &WeakSeries{
		Code: code.Name, Test: test, Machine: machine.Name,
		ParticlesPerCore: perCore, Steps: opt.Steps,
	}
	baseCores := opt.Cores[0]
	for _, cores := range opt.Cores {
		nModeled := perCore * cores
		execN := opt.ExecN * cores / baseCores
		if execN > 8*opt.ExecN {
			execN = 8 * opt.ExecN
		}
		ps, coreCfg, err := code.Generate(test, execN)
		if err != nil {
			return nil, err
		}
		pcfg := core.ParallelConfig{
			Core:         coreCfg,
			Machine:      machine,
			Cores:        cores,
			RanksPerNode: code.RanksPerNode(machine),
			Decomp:       code.Decomp,
			DynamicLB:    code.DynamicLB,
			Cost:         code.Cost(test),
			WorkScale:    float64(nModeled) / float64(ps.NLocal),
			Steps:        opt.Steps,
		}
		_, res, err := core.RunParallelCapture(pcfg, ps)
		if err != nil {
			return nil, fmt.Errorf("experiments: weak %s/%s at %d cores: %w", codeName, test, cores, err)
		}
		series.Points = append(series.Points, WeakPoint{
			Cores:          cores,
			Ranks:          res.Ranks,
			NModeled:       nModeled,
			SecondsPerStep: res.AvgStepSeconds,
		})
	}
	if len(series.Points) > 0 && series.Points[0].SecondsPerStep > 0 {
		base := series.Points[0].SecondsPerStep
		for i := range series.Points {
			series.Points[i].Efficiency = base / series.Points[i].SecondsPerStep
		}
	}
	return series, nil
}

// Format renders the weak-scaling table.
func (s *WeakSeries) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Weak scaling: %s (%s), %s — %d particles/core, %d steps\n",
		s.Code, s.Test, s.Machine, s.ParticlesPerCore, s.Steps)
	fmt.Fprintf(&sb, "%8s %8s %14s %20s %12s\n", "cores", "ranks", "N (modeled)", "avg time/step (s)", "efficiency")
	for _, p := range s.Points {
		fmt.Fprintf(&sb, "%8d %8d %14d %20.3f %12.3f\n",
			p.Cores, p.Ranks, p.NModeled, p.SecondsPerStep, p.Efficiency)
	}
	return sb.String()
}
