package server

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// ExperimentView is the wire shape of a convergence experiment (POST
// /v1/experiments): an N-ladder of member jobs aggregated into a norm-vs-N
// regression (experiments.Result) when the last member completes.
type ExperimentView = SweepView[experiments.Sweep]

var convergenceKind = kind[experiments.Sweep, ExperimentView]{
	noun: "experiment", body: "sweep",
	prefix: "exp", route: "/v1/experiments", listKey: "experiments",
	plan:      planConvergence,
	aggregate: aggregateConvergence,
	view:      sweepViewLocked[experiments.Sweep],
}

// planConvergence canonicalizes a sweep and expands its ladder into one
// member per particle count. The scenario must register an analytic
// reference: the regression is over the members' error norms against it.
func planConvergence(_ *Server, sw experiments.Sweep) (plan[experiments.Sweep], error) {
	var p plan[experiments.Sweep]
	csw, err := sw.Canonical()
	if err != nil {
		return p, err
	}
	sc, err := scenario.Get(csw.Base.Scenario)
	if err != nil {
		return p, err
	}
	if sc.Reference == nil {
		return p, fmt.Errorf("server: scenario %q registers no analytic reference; a convergence experiment needs one to score its members", sc.Name)
	}
	if p.hash, err = csw.Hash(); err != nil {
		return p, err
	}
	p.spec = csw
	for _, n := range csw.Ns {
		p.members = append(p.members, memberSpec{spec: csw.Member(n), label: fmt.Sprintf("N=%d", n)})
	}
	return p, nil
}

// aggregateConvergence fits the trimmed log-log convergence order through
// the members' L1 density norms.
func aggregateConvergence(s *Server, rec *derived[experiments.Sweep]) (any, error) {
	points := make([]experiments.Point, 0, len(rec.Members))
	for _, m := range rec.Members {
		var rep struct {
			Particles int     `json:"particles"`
			L1Density float64 `json:"l1Density"`
			Pass      bool    `json:"pass"`
		}
		if err := s.memberReport(m, &rep); err != nil {
			return nil, err
		}
		points = append(points, experiments.Point{
			N: m.n, Particles: rep.Particles,
			L1Density: rep.L1Density, Pass: rep.Pass, Hash: m.hash,
		})
	}
	fit, err := experiments.FitOrder(points)
	if err != nil {
		return nil, err
	}
	return experiments.Result{
		Scenario: rec.Spec.Base.Scenario,
		Field:    "density-l1-trimmed",
		Points:   points,
		Fit:      fit,
	}, nil
}
