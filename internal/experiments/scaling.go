package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// This file is the paper's headline experiment — the §5.2 scaling study
// (Figures 1-3 and the POP efficiency sweep) — as a first-class experiment
// object: the job API serves it (POST /v1/scaling) and the offline figure
// harness (experiments.go) builds the same result in process. A ScalingSweep
// is one base job spec executed across a ladder of core counts; served
// members run through the ordinary coalescing job pipeline, the per-member
// phase timings (internal/simmpi's compute / halo / collective split)
// aggregate in BuildScalingResult — the only scaling aggregation — into
// speedup, parallel and POP efficiency curves, and a trimmed-least-squares
// Amdahl fit reports the serial fraction robustly to outlier members
// (Coretto & Hennig, arXiv:1406.0808).
// Paired comparisons across machines or parent-code calibrations share one
// member ladder — matched by the system, not assembled after the fact
// (Imai, King & Nall, arXiv:0910.3752).

// MaxScalingPoints bounds one ladder; each point is a full member job.
const MaxScalingPoints = 12

// MaxScalingArms bounds the execution arms of a paired sweep.
const MaxScalingArms = 4

// Scaling modes.
const (
	// ScalingStrong holds the problem size fixed while cores grow (the
	// paper's Figures 1-3). The default.
	ScalingStrong = "strong"
	// ScalingWeak holds the per-core particle load fixed while cores grow
	// (the paper's declared future work).
	ScalingWeak = "weak"
)

// ScalingArm is one execution arm of a paired scaling comparison: the same
// scenario and ladder under an alternative execution section (machine model
// and/or parent-code cost calibration).
type ScalingArm struct {
	// Name labels the arm in results; defaults to the exec section's
	// machine/cost spelling.
	Name string        `json:"name,omitempty"`
	Exec scenario.Exec `json:"exec"`
}

// ScalingSweep is a scaling experiment: one base job spec executed at a
// ladder of core counts, with every other knob held fixed.
type ScalingSweep struct {
	// Base is the member template; Base.Cores is overridden per point (and
	// Base.Params.N per point in weak mode).
	Base scenario.JobSpec `json:"base"`
	// Cores lists the ladder (at least two distinct positive counts).
	Cores []int `json:"cores"`
	// Mode is "strong" (default) or "weak".
	Mode string `json:"mode,omitempty"`
	// ParticlesPerCore fixes the per-core load of a weak sweep (required
	// there, rejected for strong sweeps).
	ParticlesPerCore int `json:"particlesPerCore,omitempty"`
	// Arms optionally runs the same ladder under alternative execution
	// sections — a paired machine or parent-code comparison. Empty runs a
	// single arm under Base.Exec; when set, Base.Exec is ignored (and
	// canonicalized away).
	Arms []ScalingArm `json:"arms,omitempty"`
}

// Canonical sorts and deduplicates the ladder, validates mode and arms, and
// resolves the base spec, forcing the per-point fields (Cores, weak-mode N,
// armed Exec) to canonical values so sweeps differing only in ignored
// template fields hash identically.
func (sw ScalingSweep) Canonical() (ScalingSweep, error) {
	if len(sw.Cores) == 0 {
		return sw, fmt.Errorf("experiments: scaling sweep has no core counts")
	}
	cs := append([]int(nil), sw.Cores...)
	sort.Ints(cs)
	dedup := cs[:1]
	for _, c := range cs[1:] {
		if c != dedup[len(dedup)-1] {
			dedup = append(dedup, c)
		}
	}
	if dedup[0] <= 0 {
		return sw, fmt.Errorf("experiments: scaling core count %d is not positive", dedup[0])
	}
	if len(dedup) < 2 {
		return sw, fmt.Errorf("experiments: a scaling sweep needs at least 2 distinct core counts")
	}
	if len(dedup) > MaxScalingPoints {
		return sw, fmt.Errorf("experiments: scaling sweep of %d points exceeds the %d-point limit",
			len(dedup), MaxScalingPoints)
	}
	sw.Cores = dedup

	switch sw.Mode {
	case "", ScalingStrong:
		// The default, spelled out or omitted, canonicalizes to omitted.
		sw.Mode = ""
		if sw.ParticlesPerCore != 0 {
			return sw, fmt.Errorf("experiments: particlesPerCore is a weak-scaling knob (strong sweeps fix Base.Params.N)")
		}
	case ScalingWeak:
		if sw.ParticlesPerCore <= 0 {
			return sw, fmt.Errorf("experiments: a weak scaling sweep needs particlesPerCore > 0")
		}
		// The template N is ignored: the smallest ladder point defines it.
		sw.Base.Params.N = sw.ParticlesPerCore * sw.Cores[0]
	default:
		return sw, fmt.Errorf("experiments: unknown scaling mode %q (have %s, %s)",
			sw.Mode, ScalingStrong, ScalingWeak)
	}

	// The template run shape is ignored: members get their ladder point.
	sw.Base.Cores = sw.Cores[0]

	if len(sw.Arms) > 0 {
		if len(sw.Arms) > MaxScalingArms {
			return sw, fmt.Errorf("experiments: %d scaling arms exceed the %d-arm limit",
				len(sw.Arms), MaxScalingArms)
		}
		// Arms replace the template exec section entirely.
		sw.Base.Exec = scenario.Exec{}
		arms := append([]ScalingArm(nil), sw.Arms...)
		seenExec := map[scenario.Exec]bool{}
		seenName := map[string]bool{}
		for i := range arms {
			e, err := arms[i].Exec.Canonical()
			if err != nil {
				return sw, fmt.Errorf("experiments: scaling arm %d: %w", i, err)
			}
			if e.Backend == scenario.BackendSerial {
				return sw, fmt.Errorf("experiments: scaling arm %d: the serial backend has no modeled timings to scale", i)
			}
			arms[i].Exec = e
			if seenExec[e] {
				return sw, fmt.Errorf("experiments: scaling arms %v duplicate one execution section", e)
			}
			seenExec[e] = true
			if arms[i].Name == "" {
				arms[i].Name = armName(e, i)
			}
			if seenName[arms[i].Name] {
				return sw, fmt.Errorf("experiments: duplicate scaling arm name %q", arms[i].Name)
			}
			seenName[arms[i].Name] = true
		}
		sw.Arms = arms
	}

	base, err := sw.Base.Canonical()
	if err != nil {
		return sw, err
	}
	if base.Exec.Backend == scenario.BackendSerial {
		return sw, fmt.Errorf("experiments: the serial backend has no modeled timings to scale")
	}
	sw.Base = base
	return sw, nil
}

// armName derives a display label from an exec section.
func armName(e scenario.Exec, i int) string {
	var parts []string
	if e.Machine != "" {
		parts = append(parts, e.Machine)
	}
	if e.Cost != "" {
		parts = append(parts, e.Cost)
	}
	if len(parts) == 0 {
		return fmt.Sprintf("arm-%d", i)
	}
	return strings.Join(parts, "/")
}

// ResolvedMode names the mode with the default spelled out.
func (sw ScalingSweep) ResolvedMode() string {
	if sw.Mode == "" {
		return ScalingStrong
	}
	return sw.Mode
}

// NArms is the arm count (a sweep without explicit arms has one).
func (sw ScalingSweep) NArms() int {
	if len(sw.Arms) == 0 {
		return 1
	}
	return len(sw.Arms)
}

// ArmLabel names one arm of the canonical sweep.
func (sw ScalingSweep) ArmLabel(arm int) string {
	if len(sw.Arms) == 0 {
		return armName(sw.Base.Exec, 0)
	}
	return sw.Arms[arm].Name
}

// Member returns the canonical member job spec of one (arm, core count)
// ladder point.
func (sw ScalingSweep) Member(arm, cores int) scenario.JobSpec {
	js := sw.Base
	js.Cores = cores
	if sw.Mode == ScalingWeak {
		js.Params.N = sw.ParticlesPerCore * cores
	}
	if len(sw.Arms) > 0 {
		js.Exec = sw.Arms[arm].Exec
	}
	return js
}

// Hash returns the hex SHA-256 of the canonical sweep, domain-separated
// from job and convergence-experiment hashes.
func (sw ScalingSweep) Hash() (string, error) {
	c, err := sw.Canonical()
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(struct {
		Kind  string       `json:"kind"`
		Sweep ScalingSweep `json:"sweep"`
	}{Kind: "experiment/scaling", Sweep: c})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// PhaseSeconds is a per-phase time decomposition summed over ranks.
type PhaseSeconds struct {
	Compute    float64 `json:"compute"`
	Halo       float64 `json:"halo"`
	Collective float64 `json:"collective"`
}

// Total sums the phases.
func (p PhaseSeconds) Total() float64 { return p.Compute + p.Halo + p.Collective }

// POPMetrics are the POP Centre-of-Excellence efficiencies of one member,
// computed from its per-rank phase timings (paper §5.2).
type POPMetrics struct {
	LoadBalance            float64 `json:"loadBalance"`
	CommEfficiency         float64 `json:"commEfficiency"`
	ParallelEfficiency     float64 `json:"parallelEfficiency"`
	ComputationScalability float64 `json:"computationScalability"`
	GlobalEfficiency       float64 `json:"globalEfficiency"`
}

// ScalingCurvePoint is one core count of a served scaling curve.
type ScalingCurvePoint struct {
	Cores int `json:"cores"`
	Ranks int `json:"ranks"`
	// N is the member's modeled particle count (constant for strong
	// sweeps, cores*particlesPerCore for weak ones).
	N int `json:"n"`
	// Hash addresses the member's result in the store.
	Hash           string  `json:"hash,omitempty"`
	SecondsPerStep float64 `json:"secondsPerStep"`
	// Speedup is t(first point)/t(this); Efficiency is the parallel
	// efficiency — strong: Speedup normalized by the core ratio; weak:
	// Speedup itself (flat-curve ideal).
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
	// KarpFlatt is the experimentally determined serial fraction at this
	// point (strong mode, past the first point).
	KarpFlatt float64 `json:"karpFlatt,omitempty"`
	// Phases decomposes the member's rank-seconds; RankSeconds is the sum
	// of per-rank simulated clocks, which the phases must add up to.
	Phases      PhaseSeconds `json:"phases"`
	RankSeconds float64      `json:"rankSeconds"`
	POP         *POPMetrics  `json:"pop,omitempty"`
}

// AmdahlFit is the trimmed-least-squares fit of the Amdahl law
// t(p') = T1*(s + (1-s)/p') over a strong-scaling curve, with p' the core
// count normalized to the first ladder point. Trimming drops the
// worst-residual members before the final fit, so a single outlier point
// (one mis-modeled member) cannot steer the serial fraction.
type AmdahlFit struct {
	// SerialFraction is the fitted Amdahl serial fraction s in [0, 1].
	SerialFraction float64 `json:"serialFraction"`
	// T1 is the fitted time/step at the first ladder point.
	T1 float64 `json:"t1"`
	// R2 is the coefficient of determination over the kept points.
	R2 float64 `json:"r2"`
	// Trimmed counts members discarded as outliers.
	Trimmed int `json:"trimmed"`
}

// DefaultFitKeep is the kept fraction of members for the trimmed Amdahl
// fit. Ladders of up to 3 points are never trimmed (the n-3 cap leaves
// nothing to drop); a 4-point ladder may drop its single worst-residual
// member, a 6-point ladder up to two — always reported via Fit.Trimmed.
const DefaultFitKeep = 0.75

// FitAmdahl fits t = a + b/p' by least squares over (cores, secondsPerStep)
// pairs, with p' = cores/cores[0]; then, when the ladder is long enough,
// refits with the worst ceil(n*(1-keep)) residuals discarded (at most n-3,
// so the refit stays overdetermined). SerialFraction = a/(a+b), clamped to
// [0, 1].
func FitAmdahl(cores []int, tps []float64, keep float64) (*AmdahlFit, error) {
	n := len(cores)
	if n != len(tps) {
		return nil, fmt.Errorf("experiments: %d core counts vs %d timings", n, len(tps))
	}
	if n < 2 {
		return nil, fmt.Errorf("experiments: Amdahl fit needs at least 2 points, have %d", n)
	}
	for i, t := range tps {
		if t <= 0 {
			return nil, fmt.Errorf("experiments: point at %d cores has no positive time/step", cores[i])
		}
	}
	if keep <= 0 || keep > 1 {
		keep = DefaultFitKeep
	}
	xs := make([]float64, n)
	for i, c := range cores {
		xs[i] = float64(cores[0]) / float64(c) // 1/p'
	}

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	a, b, err := lsqLine(xs, tps, idx)
	if err != nil {
		return nil, err
	}

	trimmed := 0
	drop := int(math.Ceil(float64(n) * (1 - keep)))
	if drop > n-3 {
		drop = n - 3
	}
	if drop > 0 {
		// One-step least trimmed squares: rank by residual against the full
		// fit, keep the best n-drop, refit.
		sort.Slice(idx, func(i, j int) bool {
			ri := math.Abs(tps[idx[i]] - (a + b*xs[idx[i]]))
			rj := math.Abs(tps[idx[j]] - (a + b*xs[idx[j]]))
			return ri < rj
		})
		kept := idx[:n-drop]
		a2, b2, err := lsqLine(xs, tps, kept)
		if err == nil {
			a, b = a2, b2
			idx = kept
			trimmed = drop
		}
	}

	t1 := a + b // time at p' = 1
	if t1 <= 0 {
		return nil, fmt.Errorf("experiments: degenerate Amdahl fit (t1 = %g)", t1)
	}
	s := a / t1
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	fit := &AmdahlFit{SerialFraction: s, T1: t1, R2: 1, Trimmed: trimmed}

	var my float64
	for _, i := range idx {
		my += tps[i]
	}
	my /= float64(len(idx))
	var ssTot, ssRes float64
	for _, i := range idx {
		d := tps[i] - my
		ssTot += d * d
		r := tps[i] - (a + b*xs[i])
		ssRes += r * r
	}
	if ssTot > 0 {
		fit.R2 = 1 - ssRes/ssTot
	}
	return fit, nil
}

// lsqLine solves the 2-parameter least squares y = a + b*x over the
// selected indices.
func lsqLine(xs, ys []float64, idx []int) (a, b float64, err error) {
	n := float64(len(idx))
	var sx, sy, sxx, sxy float64
	for _, i := range idx {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	det := n*sxx - sx*sx
	if det == 0 {
		return 0, 0, fmt.Errorf("experiments: all fit points share one core count")
	}
	b = (n*sxy - sx*sy) / det
	a = (sy - b*sx) / n
	return a, b, nil
}

// KarpFlatt is the experimentally determined serial fraction at one point
// of a strong-scaling curve: e = (1/speedup - 1/p') / (1 - 1/p'), with p'
// the core ratio to the base point. Undefined (0) at the base point.
func KarpFlatt(speedup, coreRatio float64) float64 {
	if coreRatio <= 1 || speedup <= 0 {
		return 0
	}
	return (1/speedup - 1/coreRatio) / (1 - 1/coreRatio)
}

// ScalingArmResult is one arm's aggregated curve.
type ScalingArmResult struct {
	Name   string              `json:"name,omitempty"`
	Exec   scenario.Exec       `json:"exec,omitzero"`
	Points []ScalingCurvePoint `json:"points"`
	// Fit is the trimmed Amdahl regression (strong sweeps only).
	Fit *AmdahlFit `json:"fit,omitempty"`
}

// PairedComparison compares one arm against the baseline arm point-by-point
// on the shared ladder: Ratios[i] = t_arm/t_baseline at Cores[i] (< 1 means
// the arm is faster), MeanRatio their geometric mean.
type PairedComparison struct {
	Baseline  string    `json:"baseline"`
	Arm       string    `json:"arm"`
	Ratios    []float64 `json:"ratios"`
	MeanRatio float64   `json:"meanRatio"`
}

// ScalingResult is the served (and persisted) outcome of a scaling
// experiment.
type ScalingResult struct {
	Scenario string             `json:"scenario"`
	Mode     string             `json:"mode"`
	Cores    []int              `json:"cores"`
	Arms     []ScalingArmResult `json:"arms"`
	Pairs    []PairedComparison `json:"pairs,omitempty"`
}

// ScalingMemberTiming is one member's measured contribution to the
// aggregation: its ladder position and the phase timing breakdown its job
// recorded.
type ScalingMemberTiming struct {
	Cores  int
	N      int
	Hash   string
	Timing core.RunTiming
}

// BuildScalingResult aggregates member timings (members[arm][point],
// aligned with the canonical sweep's arms and cores ladder) into the
// speedup / efficiency / POP curves and the per-arm Amdahl fit.
func BuildScalingResult(sw ScalingSweep, members [][]ScalingMemberTiming) (*ScalingResult, error) {
	if len(members) != sw.NArms() {
		return nil, fmt.Errorf("experiments: %d member arms for a %d-arm sweep", len(members), sw.NArms())
	}
	res := &ScalingResult{
		Scenario: sw.Base.Scenario,
		Mode:     sw.ResolvedMode(),
		Cores:    sw.Cores,
	}
	for ai, arm := range members {
		if len(arm) != len(sw.Cores) {
			return nil, fmt.Errorf("experiments: arm %d has %d members for a %d-point ladder",
				ai, len(arm), len(sw.Cores))
		}
		ar := ScalingArmResult{Name: sw.ArmLabel(ai)}
		if len(sw.Arms) > 0 {
			ar.Exec = sw.Arms[ai].Exec
		} else {
			ar.Exec = sw.Base.Exec
		}
		var ref trace.Metrics
		for pi, m := range arm {
			t := m.Timing
			if t.Steps <= 0 || t.Seconds <= 0 {
				return nil, fmt.Errorf("experiments: member at %d cores (arm %d) recorded no timing", m.Cores, ai)
			}
			pt := ScalingCurvePoint{
				Cores:          m.Cores,
				Ranks:          t.Ranks,
				N:              m.N,
				Hash:           m.Hash,
				SecondsPerStep: t.Seconds / float64(t.Steps),
			}
			for _, rt := range t.PerRank {
				pt.Phases.Compute += rt.Compute
				pt.Phases.Halo += rt.Halo
				pt.Phases.Collective += rt.Collective
				pt.RankSeconds += rt.Seconds
			}
			if pop := trace.POP(t.PerRank, t.Seconds); pop.MaxUseful > 0 {
				if pi == 0 {
					ref = pop
				}
				// A weak sweep compares each point with the reference scaled
				// to its particle load.
				load := 1.0
				if res.Mode == ScalingWeak && arm[0].N > 0 {
					load = float64(m.N) / float64(arm[0].N)
				}
				pt.POP = &POPMetrics{
					LoadBalance:            pop.LoadBalance,
					CommEfficiency:         pop.CommEfficiency,
					ParallelEfficiency:     pop.ParallelEfficiency,
					ComputationScalability: trace.ComputationScalability(ref, pop, load),
					GlobalEfficiency:       trace.GlobalEfficiency(ref, pop, load),
				}
			}
			ar.Points = append(ar.Points, pt)
		}
		base := ar.Points[0].SecondsPerStep
		for pi := range ar.Points {
			pt := &ar.Points[pi]
			if pt.SecondsPerStep > 0 {
				pt.Speedup = base / pt.SecondsPerStep
			}
			ratio := float64(pt.Cores) / float64(sw.Cores[0])
			if res.Mode == ScalingWeak {
				pt.Efficiency = pt.Speedup
			} else {
				pt.Efficiency = pt.Speedup / ratio
				pt.KarpFlatt = KarpFlatt(pt.Speedup, ratio)
			}
		}
		if res.Mode == ScalingStrong {
			tps := make([]float64, len(ar.Points))
			for pi, pt := range ar.Points {
				tps[pi] = pt.SecondsPerStep
			}
			fit, err := FitAmdahl(sw.Cores, tps, DefaultFitKeep)
			if err != nil {
				return nil, fmt.Errorf("experiments: arm %q: %w", ar.Name, err)
			}
			ar.Fit = fit
		}
		res.Arms = append(res.Arms, ar)
	}

	// Paired comparisons ride on the shared ladder: arm 0 is the baseline.
	for ai := 1; ai < len(res.Arms); ai++ {
		pc := PairedComparison{Baseline: res.Arms[0].Name, Arm: res.Arms[ai].Name}
		logSum := 0.0
		for pi := range res.Arms[ai].Points {
			r := res.Arms[ai].Points[pi].SecondsPerStep / res.Arms[0].Points[pi].SecondsPerStep
			pc.Ratios = append(pc.Ratios, r)
			logSum += math.Log(r)
		}
		pc.MeanRatio = math.Exp(logSum / float64(len(pc.Ratios)))
		res.Pairs = append(res.Pairs, pc)
	}
	return res, nil
}

// Format renders the scaling result as the rows the paper's figures plot
// and the POP efficiencies §5.2 reads off them, one table per arm.
func (r *ScalingResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s scaling, %s\n", r.Mode, r.Scenario)
	for _, arm := range r.Arms {
		if arm.Name != "" {
			fmt.Fprintf(&sb, "arm %s\n", arm.Name)
		}
		fmt.Fprintf(&sb, "%8s %8s %10s %14s %9s %11s %10s %10s %10s %9s %9s %9s %9s %9s\n",
			"cores", "ranks", "N", "time/step (s)", "speedup", "efficiency", "compute", "halo", "collective",
			"load bal", "comm eff", "parallel", "comp scal", "global")
		for _, p := range arm.Points {
			fmt.Fprintf(&sb, "%8d %8d %10d %14.4f %9.2f %11.3f %10.3f %10.3f %10.3f",
				p.Cores, p.Ranks, p.N, p.SecondsPerStep, p.Speedup, p.Efficiency,
				p.Phases.Compute, p.Phases.Halo, p.Phases.Collective)
			if pop := p.POP; pop != nil {
				fmt.Fprintf(&sb, " %9.3f %9.3f %9.3f %9.3f %9.3f", pop.LoadBalance, pop.CommEfficiency,
					pop.ParallelEfficiency, pop.ComputationScalability, pop.GlobalEfficiency)
			}
			sb.WriteByte('\n')
		}
		if arm.Fit != nil {
			fmt.Fprintf(&sb, "Amdahl fit: serial fraction %.4f, T1 %.4f s/step, R2 %.3f (%d trimmed)\n",
				arm.Fit.SerialFraction, arm.Fit.T1, arm.Fit.R2, arm.Fit.Trimmed)
		}
	}
	for _, pc := range r.Pairs {
		fmt.Fprintf(&sb, "paired %s vs %s: mean time ratio %.3f (per point: %s)\n",
			pc.Arm, pc.Baseline, pc.MeanRatio, formatRatios(pc.Ratios))
	}
	return sb.String()
}

func formatRatios(rs []float64) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%.3f", r)
	}
	return strings.Join(parts, ", ")
}
