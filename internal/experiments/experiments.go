// Package experiments regenerates every figure and table of the paper's
// evaluation (§5): the strong-scaling curves of Figures 1-3, the
// Extrae-style phase timeline and POP efficiency analysis of Figure 4, and
// Tables 1-5. The README's "Scaling studies" and "Trace export" sections
// carry the experiment index; EXPERIMENTS.md the paper-vs-measured record.
package experiments

import (
	"fmt"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/part"
	"repro/internal/perfmodel"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// PaperN is the particle count of every paper experiment (Table 5).
const PaperN = 1_000_000

// PaperSteps is the simulated length of every paper experiment (Table 5).
const PaperSteps = 20

// Options tunes experiment execution. The paper's configuration is 1e6
// particles and 20 steps; ExecN trades runtime for fidelity by executing a
// smaller set and charging work scaled to N (compute linearly, halo traffic
// by the 2/3 surface power) — see EXPERIMENTS.md, "Scaling studies".
type Options struct {
	// N is the modeled particle count (default PaperN).
	N int
	// ExecN is the executed particle count (default 64_000).
	ExecN int
	// Steps per run (default PaperSteps).
	Steps int
	// Cores lists the x-axis (default: the paper's 12..384 ladder).
	Cores []int
}

func (o *Options) defaults() {
	if o.N <= 0 {
		o.N = PaperN
	}
	if o.ExecN <= 0 {
		o.ExecN = 64_000
	}
	if o.Steps <= 0 {
		o.Steps = PaperSteps
	}
	if len(o.Cores) == 0 {
		o.Cores = []int{12, 24, 48, 96, 192, 384}
	}
}

// RunScaling produces the strong-scaling curves of one code running one test
// across opt.Cores: one arm per machine, all on the same ladder, aggregated
// exactly as a served scaling experiment is.
func RunScaling(codeName string, test codes.Test, machines []string, opt Options) (*ScalingResult, error) {
	opt.defaults()
	return runLadder(codeName, test, machines, 0, opt)
}

// RunWeakScaling grows the modeled problem with the machine at a fixed
// particles-per-core budget (the paper's production regime: ~1e4-1e6
// particles/core, and its declared future work — ideal behavior is a flat
// time-per-step curve). Executed particle counts grow proportionally from
// opt.ExecN at the first core count, capped at 8*opt.ExecN to bound runtime;
// beyond the cap, WorkScale carries the growth.
func RunWeakScaling(codeName string, test codes.Test, machines []string, perCore int, opt Options) (*ScalingResult, error) {
	opt.defaults()
	if perCore <= 0 {
		perCore = max(1000, opt.N/opt.Cores[len(opt.Cores)-1])
	}
	return runLadder(codeName, test, machines, perCore, opt)
}

// runLadder is the in-process ladder executor behind every offline figure:
// it runs the distributed engine at each (machine, core count), hands each
// point's timing record to BuildScalingResult as a member, and returns what
// the server would persist for the same sweep. perCore > 0 makes the ladder
// weak: the point's N follows its core count instead of staying at opt.N.
func runLadder(codeName string, test codes.Test, machines []string, perCore int, opt Options) (*ScalingResult, error) {
	code, err := codes.ByName(codeName)
	if err != nil {
		return nil, err
	}
	sw := ScalingSweep{
		Base:  scenario.JobSpec{Spec: scenario.Spec{Scenario: string(test), Steps: opt.Steps}},
		Cores: opt.Cores,
	}
	if perCore > 0 {
		sw.Mode, sw.ParticlesPerCore = ScalingWeak, perCore
	}
	members := make([][]ScalingMemberTiming, len(machines))
	for ai, name := range machines {
		machine, err := perfmodel.ByName(name)
		if err != nil {
			return nil, err
		}
		exec, err := scenario.Exec{Machine: name, Cost: codeName}.Canonical()
		if err != nil {
			return nil, err
		}
		sw.Arms = append(sw.Arms, ScalingArm{Name: armName(exec, ai), Exec: exec})
		for _, cores := range opt.Cores {
			n, execN := opt.N, opt.ExecN
			if perCore > 0 {
				n = perCore * cores
				execN = min(opt.ExecN*cores/opt.Cores[0], 8*opt.ExecN)
			}
			ps, coreCfg, err := generate(code, test, execN)
			if err != nil {
				return nil, err
			}
			_, res, err := core.RunParallelCapture(core.ParallelConfig{
				Core:         coreCfg,
				Machine:      machine,
				Cores:        cores,
				RanksPerNode: code.RanksPerNode(machine),
				Decomp:       code.Decomp,
				DynamicLB:    code.DynamicLB,
				Cost:         code.Cost(test),
				WorkScale:    float64(n) / float64(ps.NLocal),
				Steps:        opt.Steps,
			}, ps)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%s/%s at %d cores: %w",
					codeName, test, name, cores, err)
			}
			members[ai] = append(members[ai], ScalingMemberTiming{Cores: cores, N: n, Timing: *res.Timing})
		}
	}
	return BuildScalingResult(sw, members)
}

// generate builds a paper test at n particles as a parent code runs it: the
// scenario registry's initial conditions and physics at the code's neighbor
// target, then the code's Table 1 numerics. It refuses, before building any
// particle, a test outside the paper's two, which no cost calibration fits,
// and the Evrard test for a code without self-gravity (paper §5.1).
func generate(code *codes.Code, test codes.Test, n int) (*part.Set, core.Config, error) {
	switch {
	case test != codes.SquarePatch && test != codes.Evrard:
		return nil, core.Config{}, fmt.Errorf("experiments: unknown test %q (have %s, %s)", test, codes.SquarePatch, codes.Evrard)
	case test == codes.Evrard && !code.HasGravity:
		return nil, core.Config{}, fmt.Errorf("experiments: %s has no self-gravity; the Evrard test was only performed by the astrophysical codes (paper §5.1)", code.Name)
	}
	sc, err := scenario.Get(string(test))
	if err != nil {
		return nil, core.Config{}, err
	}
	ps, cfg, err := sc.Generate(scenario.Params{N: n, NNeighbors: code.NNeighbors})
	if err != nil {
		return nil, core.Config{}, err
	}
	if err := code.Configure(&cfg); err != nil {
		return nil, core.Config{}, err
	}
	return ps, cfg, nil
}

// bothMachines are the paper's two systems; as the arms of one result they
// share a ladder, so their paired time ratio comes with the curves.
var bothMachines = []string{"daint", "marenostrum"}

// Fig1 reproduces Figure 1: SPHYNX strong scaling for the square patch (a)
// and the Evrard collapse (b), each with Piz Daint and MareNostrum 4 as the
// two arms of one result.
func Fig1(opt Options) ([]*ScalingResult, error) {
	return figure("sphynx", []codes.Test{codes.SquarePatch, codes.Evrard}, bothMachines, opt)
}

// Fig2 reproduces Figure 2: ChaNGa strong scaling (square and Evrard) on
// Piz Daint, to 1536 cores in the paper.
func Fig2(opt Options) ([]*ScalingResult, error) {
	if len(opt.Cores) == 0 {
		opt.Cores = []int{12, 24, 48, 96, 192, 384, 768, 1536}
	}
	return figure("changa", []codes.Test{codes.SquarePatch, codes.Evrard}, []string{"daint"}, opt)
}

// Fig3 reproduces Figure 3: SPH-flow strong scaling (square patch) on both
// machines, to 768 cores in the paper.
func Fig3(opt Options) ([]*ScalingResult, error) {
	if len(opt.Cores) == 0 {
		opt.Cores = []int{12, 24, 48, 96, 192, 384, 768}
	}
	return figure("sphflow", []codes.Test{codes.SquarePatch}, bothMachines, opt)
}

// figure runs one strong ladder per test case, the panels of a paper figure.
func figure(codeName string, tests []codes.Test, machines []string, opt Options) ([]*ScalingResult, error) {
	var out []*ScalingResult
	for _, test := range tests {
		r, err := RunScaling(codeName, test, machines, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Fig4Result holds the Figure 4 reproduction: a SPHYNX Evrard step traced
// at 192 cores (16 ranks x 12 threads on Piz Daint).
type Fig4Result struct {
	Timeline  string
	Phases    []trace.PhaseStat
	Metrics   trace.Metrics
	StepsRun  int
	CoresUsed int
}

// Fig4 reproduces the Extrae visualization of a SPHYNX time-step and the
// POP metrics discussion of §5.2: the timeline from the live tracer, the
// efficiencies from the run's timing record like every other POP figure.
func Fig4(opt Options) (*Fig4Result, error) {
	opt.defaults()
	code, _ := codes.ByName("sphynx")
	machine, _ := perfmodel.ByName("daint")
	ps, coreCfg, err := generate(code, codes.Evrard, opt.ExecN)
	if err != nil {
		return nil, err
	}
	tr := trace.New()
	pcfg := core.ParallelConfig{
		Core:         coreCfg,
		Machine:      machine,
		Cores:        192,
		RanksPerNode: 1,
		Decomp:       code.Decomp,
		Cost:         code.Cost(codes.Evrard),
		WorkScale:    float64(opt.N) / float64(ps.NLocal),
		Tracer:       tr,
		Steps:        1,
	}
	_, res, err := core.RunParallelCapture(pcfg, ps)
	if err != nil {
		return nil, err
	}
	ivs := tr.Intervals()
	return &Fig4Result{
		Timeline:  trace.TimelineOf(ivs, 100),
		Phases:    trace.PhaseBreakdownOf(ivs),
		Metrics:   trace.POP(res.Timing.PerRank, res.Timing.Seconds),
		StepsRun:  1,
		CoresUsed: 192,
	}, nil
}

// Table returns the requested paper table (1-5).
func Table(n int) (string, error) {
	switch n {
	case 1:
		return codes.Table1(), nil
	case 2:
		return codes.Table2(), nil
	case 3:
		return codes.Table3(), nil
	case 4:
		return codes.Table4(), nil
	case 5:
		return codes.Table5(), nil
	}
	return "", fmt.Errorf("experiments: no table %d in the paper", n)
}
