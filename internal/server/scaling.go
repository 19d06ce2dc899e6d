package server

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
)

// ScalingView is the wire shape of a scaling experiment (POST /v1/scaling):
// a core-count ladder of member jobs — optionally replicated across paired
// execution arms — aggregated into speedup / POP efficiency curves and a
// trimmed Amdahl fit (experiments.ScalingResult) when the last member
// completes.
type ScalingView = SweepView[experiments.ScalingSweep]

var scalingKind = kind[experiments.ScalingSweep, ScalingView]{
	noun: "scaling experiment", body: "scaling sweep",
	prefix: "scl", route: "/v1/scaling", listKey: "scaling",
	plan:      planScaling,
	aggregate: aggregateScaling,
	view:      sweepViewLocked[experiments.ScalingSweep],
}

// planScaling canonicalizes a scaling sweep and expands it arm-major over
// the one shared ladder — the pairing discipline: every arm runs exactly
// the same core counts. Members identical to the members of a convergence
// experiment, or to individually submitted jobs, coalesce at the job layer.
func planScaling(_ *Server, sw experiments.ScalingSweep) (plan[experiments.ScalingSweep], error) {
	var p plan[experiments.ScalingSweep]
	csw, err := sw.Canonical()
	if err != nil {
		return p, err
	}
	if p.hash, err = csw.Hash(); err != nil {
		return p, err
	}
	p.spec = csw
	for arm := 0; arm < csw.NArms(); arm++ {
		name := csw.ArmLabel(arm)
		for _, cores := range csw.Cores {
			p.members = append(p.members, memberSpec{
				spec: csw.Member(arm, cores), arm: arm, armName: name, cores: cores,
				label: fmt.Sprintf("%s@%d cores", name, cores),
			})
		}
	}
	return p, nil
}

// aggregateScaling rebuilds the [arm][point] grid of member timing
// breakdowns (members arrive arm-major) and hands it to the aggregator.
func aggregateScaling(s *Server, rec *derived[experiments.ScalingSweep]) (any, error) {
	timings := make([][]experiments.ScalingMemberTiming, rec.Spec.NArms())
	for _, m := range rec.Members {
		var rep struct {
			Timing *core.RunTiming `json:"timing"`
		}
		if err := s.memberReport(m, &rep); err != nil {
			return nil, err
		}
		if rep.Timing == nil {
			// A coalesced hit on a result persisted before timing capture
			// existed; it cannot contribute a curve point.
			return nil, fmt.Errorf("member job %s (%s) recorded no phase timings (pre-timing stored result?)", m.jobID, m.label)
		}
		timings[m.arm] = append(timings[m.arm], experiments.ScalingMemberTiming{
			Cores: m.cores, N: m.n, Hash: m.hash, Timing: *rep.Timing,
		})
	}
	return experiments.BuildScalingResult(rec.Spec, timings)
}
