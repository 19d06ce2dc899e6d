// Package experiments regenerates every figure and table of the paper's
// evaluation (§5): the strong-scaling curves of Figures 1-3, the
// Extrae-style phase timeline and POP efficiency analysis of Figure 4, and
// Tables 1-5. DESIGN.md carries the experiment index; EXPERIMENTS.md the
// paper-vs-measured record.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/trace"
)

// PaperN is the particle count of every paper experiment (Table 5).
const PaperN = 1_000_000

// PaperSteps is the simulated length of every paper experiment (Table 5).
const PaperSteps = 20

// ScalingPoint is one core count of a strong-scaling curve.
type ScalingPoint struct {
	Cores          int
	Ranks          int
	SecondsPerStep float64
	HaloFraction   float64
	Metrics        trace.Metrics
}

// ScalingSeries is one curve of Figures 1-3.
type ScalingSeries struct {
	Code    string
	Test    codes.Test
	Machine string
	// N is the modeled particle count; ExecN the actually executed one.
	N, ExecN int
	Steps    int
	Points   []ScalingPoint
}

// Options tunes experiment execution. The paper's configuration is 1e6
// particles and 20 steps; ExecN trades runtime for fidelity by executing a
// smaller set and charging work scaled to N (compute linearly, halo traffic
// by the 2/3 surface power) — see DESIGN.md §6.
type Options struct {
	// N is the modeled particle count (default PaperN).
	N int
	// ExecN is the executed particle count (default 64_000).
	ExecN int
	// Steps per run (default PaperSteps).
	Steps int
	// Cores lists the x-axis (default: the paper's 12..1536 ladder).
	Cores []int
	// Trace attaches a tracer per point when set.
	Trace bool
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

// RunScaling produces one strong-scaling curve: a code running a test on a
// machine across core counts.
func RunScaling(codeName string, test codes.Test, machineName string, opt Options) (*ScalingSeries, error) {
	opt.defaults()
	code, err := codes.ByName(codeName)
	if err != nil {
		return nil, err
	}
	machine, err := perfmodel.ByName(machineName)
	if err != nil {
		return nil, err
	}
	series := &ScalingSeries{
		Code: code.Name, Test: test, Machine: machine.Name,
		N: opt.N, Steps: opt.Steps,
	}
	for _, cores := range opt.Cores {
		ps, coreCfg, err := code.Generate(test, opt.ExecN)
		if err != nil {
			return nil, err
		}
		series.ExecN = ps.NLocal
		var tr *trace.Tracer
		if opt.Trace {
			tr = trace.New()
		}
		pcfg := core.ParallelConfig{
			Core:         coreCfg,
			Machine:      machine,
			Cores:        cores,
			RanksPerNode: code.RanksPerNode(machine),
			Decomp:       code.Decomp,
			DynamicLB:    code.DynamicLB,
			Cost:         code.Cost(test),
			WorkScale:    float64(opt.N) / float64(ps.NLocal),
			Tracer:       tr,
			Steps:        opt.Steps,
		}
		_, res, err := core.RunParallelCapture(pcfg, ps)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s/%s/%s at %d cores: %w",
				codeName, test, machineName, cores, err)
		}
		pt := ScalingPoint{
			Cores:          cores,
			Ranks:          res.Ranks,
			SecondsPerStep: res.AvgStepSeconds,
			HaloFraction:   res.HaloFraction,
		}
		if tr != nil {
			pt.Metrics = res.Metrics
		}
		series.Points = append(series.Points, pt)
	}
	return series, nil
}

// Format renders the series as the rows the paper's figures plot.
func (s *ScalingSeries) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%s test case), %s — %d particles (executed %d), %d steps\n",
		s.Code, s.Test, s.Machine, s.N, s.ExecN, s.Steps)
	fmt.Fprintf(&sb, "%8s %8s %24s %12s\n", "cores", "ranks", "avg time/step (s)", "halo frac")
	for _, p := range s.Points {
		fmt.Fprintf(&sb, "%8d %8d %24.3f %12.3f\n", p.Cores, p.Ranks, p.SecondsPerStep, p.HaloFraction)
	}
	return sb.String()
}

// Speedup returns per-point speedups relative to the first core count.
func (s *ScalingSeries) Speedup() []float64 {
	out := make([]float64, len(s.Points))
	if len(s.Points) == 0 || s.Points[0].SecondsPerStep == 0 {
		return out
	}
	base := s.Points[0].SecondsPerStep
	for i, p := range s.Points {
		out[i] = base / p.SecondsPerStep
	}
	return out
}

// Fig1 reproduces Figure 1: SPHYNX strong scaling for the square patch (a)
// and the Evrard collapse (b) on both machines.
func Fig1(opt Options) ([]*ScalingSeries, error) {
	var out []*ScalingSeries
	for _, test := range []codes.Test{codes.SquarePatch, codes.Evrard} {
		for _, m := range []string{"daint", "marenostrum"} {
			s, err := RunScaling("sphynx", test, m, opt)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// Fig2 reproduces Figure 2: ChaNGa strong scaling (square and Evrard) on
// Piz Daint, to 1536 cores in the paper.
func Fig2(opt Options) ([]*ScalingSeries, error) {
	if len(opt.Cores) == 0 {
		opt.Cores = []int{12, 24, 48, 96, 192, 384, 768, 1536}
	}
	var out []*ScalingSeries
	for _, test := range []codes.Test{codes.SquarePatch, codes.Evrard} {
		s, err := RunScaling("changa", test, "daint", opt)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig3 reproduces Figure 3: SPH-flow strong scaling (square patch) on both
// machines, to 768 cores in the paper.
func Fig3(opt Options) ([]*ScalingSeries, error) {
	if len(opt.Cores) == 0 {
		opt.Cores = []int{12, 24, 48, 96, 192, 384, 768}
	}
	var out []*ScalingSeries
	for _, m := range []string{"daint", "marenostrum"} {
		s, err := RunScaling("sphflow", codes.SquarePatch, m, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
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
// POP metrics discussion of §5.2.
func Fig4(opt Options) (*Fig4Result, error) {
	opt.defaults()
	code, _ := codes.ByName("sphynx")
	machine, _ := perfmodel.ByName("daint")
	ps, coreCfg, err := code.Generate(codes.Evrard, opt.ExecN)
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
	return &Fig4Result{
		Timeline:  tr.Timeline(100),
		Phases:    tr.PhaseBreakdown(),
		Metrics:   res.Metrics,
		StepsRun:  1,
		CoresUsed: 192,
	}, nil
}

// POPPoint is one core count of the POP efficiency sweep (§5.2: "the
// measured global efficiency steadily decreases from 48 cores to 192
// cores; most of the efficiency loss comes from an increased load
// imbalance").
type POPPoint struct {
	Cores            int
	LoadBalance      float64
	CommEfficiency   float64
	ParallelEff      float64
	CompScalability  float64
	GlobalEfficiency float64
}

// POPSweep measures the POP metrics across core counts for SPHYNX on the
// square patch, with the first count as the computation-scalability
// reference.
func POPSweep(opt Options) ([]POPPoint, error) {
	opt.defaults()
	opt.Trace = true
	s, err := RunScaling("sphynx", codes.SquarePatch, "daint", opt)
	if err != nil {
		return nil, err
	}
	if len(s.Points) == 0 {
		return nil, fmt.Errorf("experiments: empty sweep")
	}
	ref := s.Points[0].Metrics
	var out []POPPoint
	for _, p := range s.Points {
		out = append(out, POPPoint{
			Cores:            p.Cores,
			LoadBalance:      p.Metrics.LoadBalance,
			CommEfficiency:   p.Metrics.CommEfficiency,
			ParallelEff:      p.Metrics.ParallelEfficiency,
			CompScalability:  trace.ComputationScalability(ref, p.Metrics),
			GlobalEfficiency: trace.GlobalEfficiency(ref, p.Metrics),
		})
	}
	return out, nil
}

// FormatPOP renders a POP sweep table.
func FormatPOP(points []POPPoint) string {
	var sb strings.Builder
	sb.WriteString("POP efficiency metrics (SPHYNX, square patch, Piz Daint)\n")
	fmt.Fprintf(&sb, "%8s %12s %12s %12s %12s %12s\n",
		"cores", "load bal", "comm eff", "parallel", "comp scal", "global")
	for _, p := range points {
		fmt.Fprintf(&sb, "%8d %12.3f %12.3f %12.3f %12.3f %12.3f\n",
			p.Cores, p.LoadBalance, p.CommEfficiency, p.ParallelEff, p.CompScalability, p.GlobalEfficiency)
	}
	return sb.String()
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
