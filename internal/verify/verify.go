// Package verify turns a final particle snapshot plus an analytic
// reference solution (internal/analytic) into a structured, quantitative
// verification Report: L1/L2/L∞ error norms for density, velocity, and
// pressure — in plain and trimmed variants — post-shock plateau estimates,
// conservation drift, and pass/fail against per-scenario acceptance
// thresholds registered in internal/scenario.
//
// The trimmed norms follow the robust-estimation argument of Coretto &
// Hennig (arXiv:1406.0808): a handful of particles smeared across a
// discontinuity are contaminating outliers for the error distribution, so
// each norm is also evaluated with the worst (1-q) quantile of per-particle
// errors discarded — the thresholds bind on the trimmed L1, which tracks
// the bulk solution quality rather than the interface width.
package verify

import (
	"math"
	"sort"

	"repro/internal/analytic"
	"repro/internal/conserve"
	"repro/internal/eos"
	"repro/internal/part"
)

// DefaultTrimQuantile is the kept fraction of per-particle errors for the
// trimmed norms when a scenario does not override it.
const DefaultTrimQuantile = 0.95

// Thresholds are the per-scenario acceptance bounds. A zero field is
// unchecked; norm bounds bind on the trimmed L1 of the corresponding field.
type Thresholds struct {
	// TrimQuantile is the kept fraction for trimmed norms (0 selects
	// DefaultTrimQuantile). The per-field variants override it for one
	// field each — the spec's verification section (scenario.VerifySpec)
	// threads them through the canonical hash, so differently-trimmed
	// reports never share a stored result.
	TrimQuantile         float64 `json:"trimQuantile,omitempty"`
	TrimQuantileDensity  float64 `json:"trimQuantileDensity,omitempty"`
	TrimQuantileVelocity float64 `json:"trimQuantileVelocity,omitempty"`
	TrimQuantilePressure float64 `json:"trimQuantilePressure,omitempty"`
	// L1Density / L1Velocity / L1Pressure bound the trimmed relative L1
	// error of the field against the analytic reference.
	L1Density  float64 `json:"l1Density,omitempty"`
	L1Velocity float64 `json:"l1Velocity,omitempty"`
	L1Pressure float64 `json:"l1Pressure,omitempty"`
	// MaxEnergyDrift / MaxMomentumDrift bound the conservation drift over
	// the run (conserve.Drift components).
	MaxEnergyDrift   float64 `json:"maxEnergyDrift,omitempty"`
	MaxMomentumDrift float64 `json:"maxMomentumDrift,omitempty"`
}

// Quantile resolves the kept fraction for one field's trimmed norms:
// the per-field override, then TrimQuantile, then DefaultTrimQuantile.
func (t Thresholds) Quantile(field string) float64 {
	q := t.TrimQuantile
	switch field {
	case "density":
		if t.TrimQuantileDensity > 0 {
			q = t.TrimQuantileDensity
		}
	case "velocity":
		if t.TrimQuantileVelocity > 0 {
			q = t.TrimQuantileVelocity
		}
	case "pressure":
		if t.TrimQuantilePressure > 0 {
			q = t.TrimQuantilePressure
		}
	}
	if q <= 0 || q > 1 {
		q = DefaultTrimQuantile
	}
	return q
}

// Norms are the error norms of one field against the reference, normalized
// by the largest reference magnitude over the compared particles. The
// trimmed variants discard the worst (1-TrimQuantile) fraction of
// per-particle errors before evaluating.
type Norms struct {
	L1   float64 `json:"l1"`
	L2   float64 `json:"l2"`
	LInf float64 `json:"lInf"`

	TrimmedL1   float64 `json:"trimmedL1"`
	TrimmedL2   float64 `json:"trimmedL2"`
	TrimmedLInf float64 `json:"trimmedLInf"`

	// Scale is the normalization (max |reference| over compared samples).
	Scale float64 `json:"scale"`
	// Samples is the compared particle count; Trimmed is how many the
	// trimmed variants discarded.
	Samples int `json:"samples"`
	Trimmed int `json:"trimmed"`
}

// FieldError is the named norm set of one compared field.
type FieldError struct {
	Field string `json:"field"` // "density", "velocity", "pressure"
	Norms
}

// PlateauEstimate compares the measured mean density over a solution's
// plateau region with the analytic value.
type PlateauEstimate struct {
	Analytic  float64 `json:"analytic"`
	Measured  float64 `json:"measured"`
	RelError  float64 `json:"relError"`
	Particles int     `json:"particles"`
}

// Check is one evaluated acceptance criterion; the convention is
// Pass = Value <= Limit. The sentinel checks "reference-construction" and
// "reference-coverage" (Value 1, Limit 0, always failing) mark a report
// whose registered norm gates could not be evaluated at all — a scenario
// that promises an analytic acceptance bar must not silently degrade to
// conservation-only and still read as passing.
type Check struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Limit float64 `json:"limit"`
	Pass  bool    `json:"pass"`
}

// Report is the structured verification result of one completed run.
type Report struct {
	Scenario string `json:"scenario"`
	// Reference names the analytic solution; empty when the scenario has
	// none (the report then carries only conservation drift).
	Reference string `json:"reference,omitempty"`
	// ReferenceError records a failed reference construction — the run is
	// then unscored and the report fails its "reference-construction"
	// check.
	ReferenceError string  `json:"referenceError,omitempty"`
	SimTime        float64 `json:"simTime"`
	// Particles is the snapshot size; Compared counts those inside the
	// reference's validity domain.
	Particles int `json:"particles"`
	Compared  int `json:"compared,omitempty"`

	// L1Density is the headline number (trimmed relative L1 density
	// error), duplicated at the top level for job-list rollups.
	L1Density float64 `json:"l1Density,omitempty"`

	Fields  []FieldError     `json:"fields,omitempty"`
	Plateau *PlateauEstimate `json:"plateau,omitempty"`

	Conservation conserve.Drift `json:"conservation"`

	Thresholds Thresholds `json:"thresholds"`
	Checks     []Check    `json:"checks,omitempty"`
	// Pass is true when every registered acceptance check passed (and
	// trivially true when the scenario registers none).
	Pass bool `json:"pass"`
}

// Input is everything Evaluate needs.
type Input struct {
	// Scenario names the workload (for the report header).
	Scenario string
	// PS is the final snapshot (owned particles are compared).
	PS *part.Set
	// SimTime is the simulated physical time of the snapshot.
	SimTime float64
	// Solution is the analytic reference; nil means none (conservation
	// drift only).
	Solution analytic.Solution
	// ReferenceErr reports that the scenario registers a reference but
	// constructing it failed; the report then fails loudly instead of
	// silently passing on drift alone.
	ReferenceErr error
	// EOS, when non-nil, recomputes particle pressures from (rho, u)
	// instead of trusting the possibly half-step-stale P field.
	EOS eos.EOS
	// Thresholds are the registered acceptance bounds.
	Thresholds Thresholds
	// Initial is the conserved-quantity snapshot at t=0; HaveInitial
	// gates the drift computation.
	Initial     conserve.State
	HaveInitial bool
}

// Evaluate scores the snapshot against the reference and thresholds.
func Evaluate(in Input) *Report {
	rep := &Report{
		Scenario:   in.Scenario,
		SimTime:    in.SimTime,
		Particles:  in.PS.NLocal,
		Thresholds: in.Thresholds,
	}
	if in.HaveInitial {
		rep.Conservation = conserve.Compare(in.Initial, conserve.Measure(in.PS, nil))
	}
	if in.ReferenceErr != nil {
		rep.ReferenceError = in.ReferenceErr.Error()
	}

	if in.Solution != nil {
		rep.Reference = in.Solution.Name()
		evalFields(rep, in)
		if ps, ok := in.Solution.(analytic.PlateauSolution); ok {
			if pl, ok := ps.Plateau(in.SimTime); ok {
				rep.Plateau = measurePlateau(in.PS, pl)
			}
		}
	}

	rep.Checks = buildChecks(rep, in)
	rep.Pass = true
	for _, c := range rep.Checks {
		if !c.Pass {
			rep.Pass = false
		}
	}
	rep.Sanitize()
	return rep
}

// sentinel replaces non-finite float64s in a sanitized report. JSON cannot
// encode NaN or ±Inf — one NaN anywhere in a report makes json.Marshal fail
// and silently loses the whole report, which is exactly backwards: a
// NaN-blown run is the report the fleet analytics most needs to see. The
// sentinel's absurd magnitude keeps such a run an unambiguous gross outlier
// downstream (checks have already been evaluated, and NaN fails every
// threshold comparison, so Pass is unaffected).
const sentinel = 1e300

func sanitizeFloat(v float64) float64 {
	switch {
	case math.IsNaN(v), math.IsInf(v, 1):
		return sentinel
	case math.IsInf(v, -1):
		return -sentinel
	default:
		return v
	}
}

// Sanitize clamps every non-finite float in the report to a finite sentinel
// (±1e300) so the report always marshals to JSON. Evaluate calls it before
// returning; it is idempotent and exported for callers that build or mutate
// reports themselves.
func (r *Report) Sanitize() {
	r.SimTime = sanitizeFloat(r.SimTime)
	r.L1Density = sanitizeFloat(r.L1Density)
	for i := range r.Fields {
		n := &r.Fields[i].Norms
		n.L1 = sanitizeFloat(n.L1)
		n.L2 = sanitizeFloat(n.L2)
		n.LInf = sanitizeFloat(n.LInf)
		n.TrimmedL1 = sanitizeFloat(n.TrimmedL1)
		n.TrimmedL2 = sanitizeFloat(n.TrimmedL2)
		n.TrimmedLInf = sanitizeFloat(n.TrimmedLInf)
		n.Scale = sanitizeFloat(n.Scale)
	}
	if r.Plateau != nil {
		r.Plateau.Analytic = sanitizeFloat(r.Plateau.Analytic)
		r.Plateau.Measured = sanitizeFloat(r.Plateau.Measured)
		r.Plateau.RelError = sanitizeFloat(r.Plateau.RelError)
	}
	r.Conservation.Mass = sanitizeFloat(r.Conservation.Mass)
	r.Conservation.Momentum = sanitizeFloat(r.Conservation.Momentum)
	r.Conservation.AngMom = sanitizeFloat(r.Conservation.AngMom)
	r.Conservation.Energy = sanitizeFloat(r.Conservation.Energy)
	for i := range r.Checks {
		r.Checks[i].Value = sanitizeFloat(r.Checks[i].Value)
		r.Checks[i].Limit = sanitizeFloat(r.Checks[i].Limit)
	}
}

// evalFields computes the density, velocity, and pressure error norms over
// the particles inside the solution's validity domain, each trimmed at its
// resolved per-field quantile.
func evalFields(rep *Report, in Input) {
	ps := in.PS
	n := ps.NLocal
	errs := make([]float64, 3*n) // one array for the three fields' errors
	eRho, eV, eP := errs[:0:n], errs[n:n:2*n], errs[2*n:2*n:3*n]
	var sRho, sV, sP float64
	if sc, ok := in.Solution.(analytic.ScaledSolution); ok {
		st := sc.Scales()
		sRho, sV, sP = st.Rho, st.Vel.Norm(), st.P
	}
	for i := 0; i < ps.NLocal; i++ {
		ref, ok := in.Solution.Eval(ps.Pos[i], in.SimTime)
		if !ok {
			continue
		}
		eRho = append(eRho, math.Abs(ps.Rho[i]-ref.Rho))
		sRho = math.Max(sRho, math.Abs(ref.Rho))
		eV = append(eV, ps.Vel[i].Sub(ref.Vel).Norm())
		sV = math.Max(sV, ref.Vel.Norm())
		p := ps.P[i]
		if in.EOS != nil {
			p = in.EOS.Pressure(ps.Rho[i], ps.U[i])
		}
		eP = append(eP, math.Abs(p-ref.P))
		sP = math.Max(sP, math.Abs(ref.P))
	}
	rep.Compared = len(eRho)
	if rep.Compared == 0 {
		return
	}
	thr := in.Thresholds
	rep.Fields = []FieldError{
		{Field: "density", Norms: computeNorms(eRho, sRho, thr.Quantile("density"))},
		{Field: "velocity", Norms: computeNorms(eV, sV, thr.Quantile("velocity"))},
		{Field: "pressure", Norms: computeNorms(eP, sP, thr.Quantile("pressure"))},
	}
	rep.L1Density = rep.Fields[0].TrimmedL1
}

// computeNorms evaluates plain and trimmed L1/L2/L∞ of the absolute errors
// normalized by scale. The errs slice is sorted in place.
func computeNorms(errs []float64, scale float64, q float64) Norms {
	if scale == 0 {
		scale = 1
	}
	n := Norms{Scale: scale, Samples: len(errs)}
	n.L1, n.L2, n.LInf = rawNorms(errs, scale)

	sort.Float64s(errs)
	drop := int(float64(len(errs)) * (1 - q))
	kept := errs[:len(errs)-drop]
	n.Trimmed = drop
	n.TrimmedL1, n.TrimmedL2, n.TrimmedLInf = rawNorms(kept, scale)
	return n
}

func rawNorms(errs []float64, scale float64) (l1, l2, lInf float64) {
	if len(errs) == 0 {
		return 0, 0, 0
	}
	var sum, sum2, max float64
	for _, e := range errs {
		sum += e
		sum2 += e * e
		if e > max {
			max = e
		}
	}
	nf := float64(len(errs))
	return sum / nf / scale, math.Sqrt(sum2/nf) / scale, max / scale
}

// measurePlateau averages the measured density over the plateau region.
func measurePlateau(ps *part.Set, pl analytic.Plateau) *PlateauEstimate {
	var sum float64
	var n int
	for i := 0; i < ps.NLocal; i++ {
		if pl.In(ps.Pos[i]) {
			sum += ps.Rho[i]
			n++
		}
	}
	if n == 0 {
		return nil
	}
	est := &PlateauEstimate{Analytic: pl.Value, Measured: sum / float64(n), Particles: n}
	if pl.Value != 0 {
		est.RelError = math.Abs(est.Measured-pl.Value) / math.Abs(pl.Value)
	}
	return est
}

// buildChecks assembles the acceptance checks for every non-zero
// threshold. Norm checks require a reference with compared particles;
// drift checks require the initial conservation snapshot.
func buildChecks(rep *Report, in Input) []Check {
	var checks []Check
	norm := func(field string) (Norms, bool) {
		for _, f := range rep.Fields {
			if f.Field == field {
				return f.Norms, true
			}
		}
		return Norms{}, false
	}
	addNorm := func(name, field string, limit float64) {
		if limit <= 0 {
			return
		}
		if n, ok := norm(field); ok {
			checks = append(checks, Check{Name: name, Value: n.TrimmedL1, Limit: limit, Pass: n.TrimmedL1 <= limit})
		}
	}
	addNorm("density-l1-trimmed", "density", in.Thresholds.L1Density)
	addNorm("velocity-l1-trimmed", "velocity", in.Thresholds.L1Velocity)
	addNorm("pressure-l1-trimmed", "pressure", in.Thresholds.L1Pressure)
	// Sentinel failures: registered norm gates that could not run at all.
	normBound := in.Thresholds.L1Density > 0 || in.Thresholds.L1Velocity > 0 ||
		in.Thresholds.L1Pressure > 0
	if in.ReferenceErr != nil && normBound {
		checks = append(checks, Check{Name: "reference-construction", Value: 1, Limit: 0})
	}
	if in.Solution != nil && rep.Compared == 0 && normBound {
		checks = append(checks, Check{Name: "reference-coverage", Value: 1, Limit: 0})
	}
	if in.HaveInitial {
		if lim := in.Thresholds.MaxEnergyDrift; lim > 0 {
			v := rep.Conservation.Energy
			checks = append(checks, Check{Name: "energy-drift", Value: v, Limit: lim, Pass: v <= lim})
		}
		if lim := in.Thresholds.MaxMomentumDrift; lim > 0 {
			v := rep.Conservation.Momentum
			checks = append(checks, Check{Name: "momentum-drift", Value: v, Limit: lim, Pass: v <= lim})
		}
	}
	return checks
}
