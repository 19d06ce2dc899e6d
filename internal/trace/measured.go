// Measured-trace assembly: reconstructing per-rank interval timelines from
// the artifacts a completed job persists — the per-rank phase totals of the
// report's timing record, the per-step class sums of the telemetry track,
// and the job-lifecycle spans stored next to the report. The inputs are
// pure data (no engine state), so the reconstruction is a deterministic
// function of persisted bytes: cache-hit resubmissions and post-restart
// fetches rebuild identical traces.
package trace

import "repro/internal/obs"

// Frozen phase names of reassembled parallel-engine slices — one per
// RankTotals class, and the keys of a distributed-backend telemetry sample's
// Phases map: renaming one is a wire-format change, not a refactor.
const (
	PhaseCompute    = "compute"
	PhaseHalo       = "halo"
	PhaseCollective = "collective"
)

// RankTotals decomposes one rank's simulated clock over a whole run into
// the three phase classes a scaling study attributes time to: useful
// compute, halo (point-to-point) exchange, and collective synchronization.
// It is the per-rank row of the persisted timing record (core.RankTiming is
// this type; trace cannot import core — core imports trace).
type RankTotals struct {
	Rank    int     `json:"rank"`
	Compute float64 `json:"compute"`
	Halo    float64 `json:"halo"`
	// Collective covers the global reductions (h-iteration consensus, dt,
	// conservation sums).
	Collective float64 `json:"collective"`
	// Seconds is the rank's clock at run end; the three classes sum to it
	// (up to float addition order).
	Seconds float64 `json:"seconds"`
}

// StepClassSeconds is one step's class sums over all ranks, from the
// telemetry track's per-step phase samples. They shape how each rank's
// totals distribute over steps: the totals carry the truth, the steps
// carry the rhythm.
type StepClassSeconds struct {
	Step       int
	Compute    float64
	Halo       float64
	Collective float64
}

// PhaseSpan is one named phase duration of a serial step, in recorded
// order.
type PhaseSpan struct {
	Phase   string
	Seconds float64
}

// SerialStep is one serial-engine step's wall-clock phase record.
type SerialStep struct {
	Step   int
	Phases []PhaseSpan
}

// MeasuredInput carries the persisted artifacts a trace reassembles from.
// Exactly one engine record should be present: Ranks (+ optional Steps)
// for a parallel run, Serial for a serial one.
type MeasuredInput struct {
	// Ranks are the parallel engine's per-rank phase totals.
	Ranks []RankTotals
	// Steps are the per-step class sums; empty collapses the run to one
	// aggregate step per rank.
	Steps []StepClassSeconds
	// Serial is the serial engine's per-step phase record.
	Serial []SerialStep
	// Lifecycle is the job's wall-clock span record (queue-wait, restore,
	// run, checkpoint, verify) in recorded order.
	Lifecycle []obs.Phase
	// Offset places the engine timeline at the point the lifecycle
	// reached its run phase, so engine slices nest under the lifecycle
	// track's run span in a viewer.
	Offset float64
}

// Measured is a reassembled trace: engine intervals (the rows the Perfetto
// document and the Paraver timeline draw), the lifecycle track, and the POP
// analysis of the rank totals they were laid out from.
type Measured struct {
	// Intervals are the engine intervals, rank-major and time-ordered
	// within each rank.
	Intervals []Interval
	// Lifecycle lays the span record end-to-end from t=0.
	Lifecycle []Interval
	// Metrics is POP over the rank totals the trace was built from (a
	// serial run is one rank that only computes).
	Metrics Metrics
}

// classWeights distributes a rank's class total over steps in proportion
// to the fleet-wide per-step class sums; a zero fleet total (a class that
// never ran) falls back to uniform weights.
func classWeights(steps []StepClassSeconds, class func(StepClassSeconds) float64) []float64 {
	w := make([]float64, len(steps))
	var total float64
	for _, s := range steps {
		total += class(s)
	}
	if total <= 0 {
		for i := range w {
			w[i] = 1 / float64(len(steps))
		}
		return w
	}
	for i, s := range steps {
		w[i] = class(s) / total
	}
	return w
}

// BuildMeasured reassembles interval timelines from persisted artifacts.
//
// Parallel runs: each rank replays the step rhythm — for step k it
// computes, exchanges halos, then joins collectives, with durations equal
// to the rank's class totals split across steps by the fleet-wide per-step
// class weights. Per-rank, per-class interval sums therefore reproduce the
// timing record's totals exactly (up to float summation), which is the
// invariant the smoke contract checks against the persisted report.
//
// Serial runs: one rank, steps laid sequentially, each step's phases in
// recorded order, all useful computation.
func BuildMeasured(in MeasuredInput) Measured {
	var m Measured
	t := 0.0
	for _, sp := range in.Lifecycle {
		m.Lifecycle = append(m.Lifecycle, Interval{
			Rank: 0, Phase: sp.Name, State: Compute, Start: t, End: t + sp.Seconds,
		})
		t += sp.Seconds
	}

	switch {
	case len(in.Ranks) > 0:
		steps := in.Steps
		if len(steps) == 0 {
			// No per-step record: one aggregate pseudo-step.
			steps = []StepClassSeconds{{Step: 1, Compute: 1, Halo: 1, Collective: 1}}
		}
		wc := classWeights(steps, func(s StepClassSeconds) float64 { return s.Compute })
		wh := classWeights(steps, func(s StepClassSeconds) float64 { return s.Halo })
		ws := classWeights(steps, func(s StepClassSeconds) float64 { return s.Collective })
		for _, rk := range in.Ranks {
			t := in.Offset
			for k := range steps {
				for _, part := range []struct {
					phase string
					state State
					dur   float64
				}{
					{PhaseCompute, Compute, rk.Compute * wc[k]},
					{PhaseHalo, MPI, rk.Halo * wh[k]},
					{PhaseCollective, Sync, rk.Collective * ws[k]},
				} {
					if part.dur <= 0 {
						continue
					}
					m.Intervals = append(m.Intervals, Interval{
						Rank: rk.Rank, Phase: part.phase, State: part.state,
						Start: t, End: t + part.dur,
					})
					t += part.dur
				}
			}
		}
		var runtime float64
		for _, rk := range in.Ranks {
			runtime = max(runtime, rk.Seconds)
		}
		m.Metrics = POP(in.Ranks, runtime)
	case len(in.Serial) > 0:
		t, total := in.Offset, 0.0
		for _, st := range in.Serial {
			for _, ph := range st.Phases {
				if ph.Seconds <= 0 {
					continue
				}
				m.Intervals = append(m.Intervals, Interval{
					Rank: 0, Phase: ph.Phase, State: Compute,
					Start: t, End: t + ph.Seconds,
				})
				t += ph.Seconds
				total += ph.Seconds
			}
		}
		m.Metrics = POP([]RankTotals{{Compute: total, Seconds: total}}, total)
	}
	return m
}
