package server

import (
	"encoding/json"
	"fmt"

	"repro/internal/cluster"
)

// AnalysisView is the wire shape of a fleet-clustering analysis (POST
// /v1/analytics/cluster): the persisted verification corpus — optionally
// narrowed to one scenario — extracted into robust feature vectors and fit
// with the RIMLE mixture (internal/cluster), whose improper noise component
// flags anomalous runs. Hash identifies spec + sorted member report hashes:
// new completed runs in the store change it, an unchanged corpus (including
// across a restart) is a byte-identical cache hit. Jobs is the enumerated
// dataset size (reports fed to the fit, before per-job skips).
type AnalysisView struct {
	ID       string          `json:"id"`
	Spec     cluster.Spec    `json:"spec"`
	Hash     string          `json:"hash"`
	State    JobState        `json:"state"`
	CacheHit bool            `json:"cacheHit"`
	Jobs     int             `json:"jobs"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
}

func (v AnalysisView) meta() (string, JobState) { return v.Hash, v.State }

// AnomalyMark is the rollup a flagged job carries on its views: which
// analysis assigned it to the improper noise component and with what
// posterior probability. The newest analysis covering the job wins; an
// analysis that re-clusters the job into a proper component clears the mark.
type AnomalyMark struct {
	Analysis  string  `json:"analysis"`
	Scenario  string  `json:"scenario,omitempty"`
	NoiseProb float64 `json:"noiseProb"`
}

var analysisKind = kind[cluster.Spec, AnalysisView]{
	noun: "cluster analysis", body: "cluster spec",
	prefix: "cls", route: "/v1/analytics/cluster", listKey: "analyses",
	plan: planAnalysis,
	aggregate: func(_ *Server, rec *derived[cluster.Spec]) (any, error) {
		return cluster.Analyze(rec.Spec, rec.input.([]cluster.JobData))
	},
	view: func(_ *Server, rec *derived[cluster.Spec]) AnalysisView {
		return AnalysisView{
			ID: rec.ID, Spec: rec.Spec, Hash: rec.Hash, State: rec.State,
			CacheHit: rec.CacheHit, Jobs: rec.Inputs, Result: rec.Result, Error: rec.Err,
		}
	},
	// A restart empties the anomaly rollups; a cache hit re-applies them so
	// job views and /statusz recover without a refit.
	applied: func(raw []byte) func(*Server, string) {
		var res cluster.Result
		if json.Unmarshal(raw, &res) != nil {
			return nil
		}
		return func(s *Server, id string) { s.applyAnomaliesLocked(id, &res) }
	},
}

// planAnalysis canonicalizes a cluster spec and enumerates the persisted
// verification corpus it covers; an analysis has no member jobs, the corpus
// is its input. The hash covers the spec AND the sorted member report
// hashes, so resubmitting after more jobs complete recomputes while an
// unchanged corpus never does. The scenario filter applies before hashing:
// the analysis identity is the corpus it actually fits, so unrelated
// scenarios completing cannot invalidate a filtered analysis.
func planAnalysis(s *Server, sp cluster.Spec) (plan[cluster.Spec], error) {
	var p plan[cluster.Spec]
	csp, err := sp.Canonical()
	if err != nil {
		return p, err
	}
	jobs := s.analysisDataset(csp)
	if len(jobs) < cluster.MinJobs {
		return p, fmt.Errorf("server: only %d persisted verification reports match the spec (need at least %d); seed more completed runs", len(jobs), cluster.MinJobs)
	}
	if len(jobs) > cluster.MaxJobs {
		return p, fmt.Errorf("server: %d persisted reports match the spec, over the %d-job cap; narrow the scenario filter", len(jobs), cluster.MaxJobs)
	}
	hashes := make([]string, len(jobs))
	for i, jd := range jobs {
		hashes[i] = jd.Hash
	}
	if p.hash, err = cluster.AnalysisHash(csp, hashes); err != nil {
		return p, err
	}
	p.spec, p.input, p.inputs = csp, jobs, len(jobs)
	return p, nil
}

// analysisDataset enumerates every store entry with a persisted verification
// report, reading the report (and telemetry track, when present) bytes. A
// scenario-filtered spec keeps only reports whose header names that
// scenario; reports that fail to decode are excluded from a filtered
// dataset (their scenario is unknowable) but included in an unfiltered one,
// where the fit records them as skipped.
func (s *Server) analysisDataset(csp cluster.Spec) []cluster.JobData {
	st := s.opts.Store
	var jobs []cluster.JobData
	for _, h := range st.ReportHashes() {
		rep, ok := st.ReadReport(h)
		if !ok {
			continue
		}
		if csp.Scenario != "" {
			var hdr struct {
				Scenario string `json:"scenario"`
			}
			if err := json.Unmarshal(rep, &hdr); err != nil || hdr.Scenario != csp.Scenario {
				continue
			}
		}
		jd := cluster.JobData{Hash: h, Report: rep}
		if tel, ok := st.ReadTelemetry(h); ok {
			jd.Telemetry = tel
		}
		jobs = append(jobs, jd)
	}
	return jobs
}

// applyAnomaliesLocked folds one analysis result into the anomaly rollup
// table keyed by job spec hash: members the improper component claimed gain
// (or refresh) a mark, members it released lose theirs. The
// analytics_anomalies_total counter ticks only on newly flagged jobs, so
// re-running an identical analysis cannot inflate it.
func (s *Server) applyAnomaliesLocked(analysisID string, res *cluster.Result) {
	for _, m := range res.Members {
		if !m.Anomaly {
			delete(s.anomalies, m.Hash)
			continue
		}
		if _, already := s.anomalies[m.Hash]; !already {
			scenario := m.Scenario
			if scenario == "" {
				scenario = "unknown"
			}
			s.met.anomaliesFlagged.With(scenario).Inc()
		}
		s.anomalies[m.Hash] = &AnomalyMark{
			Analysis:  analysisID,
			Scenario:  m.Scenario,
			NoiseProb: m.NoiseProb,
		}
	}
}

// jobViewLocked snapshots a job, decorating it with its anomaly mark when a
// cluster analysis has flagged its result.
func (s *Server) jobViewLocked(j *Job) JobView {
	v := JobView{
		ID: j.ID, Hash: j.Hash, State: j.State, Error: j.Err, CacheHit: j.CacheHit,
		Verify: j.verify(), Anomaly: s.anomalies[j.Hash],
	}
	if x := j.run; x != nil {
		v.Spec, v.Progress, v.Restarts, v.Telemetry = x.spec, x.progress, x.restarts, x.telemetryStatus
		return v
	}
	r := j.res
	v.Spec, v.Telemetry = r.spec, r.telemetryStatus
	v.Progress = Progress{Step: r.steps, Total: r.steps, SimTime: r.simTime}
	if e := j.end; e != nil {
		v.Progress.DT, v.Restarts, v.Telemetry = e.dt, e.restarts, e.telemetryStatus
	}
	return v
}
