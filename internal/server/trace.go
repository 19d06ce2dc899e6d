package server

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runloop"
	"repro/internal/scenario"
	"repro/internal/sph"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Trace export formats.
const (
	TraceFormatPerfetto = "perfetto"
	TraceFormatParaver  = "paraver"
)

// paraverWidth is the glyph width of the ASCII Paraver timeline.
const paraverWidth = 100

// Trace assembles the completed job's measured execution trace from its
// persisted artifacts alone — the report's per-rank timing totals and
// lifecycle spans plus the flight-recorder track's per-step phase seconds —
// so an identical resubmission (cache hit) and a post-restart fetch render
// byte-identical bytes. The second return distinguishes "job not completed
// / unknown" (false) from a completed job whose result predates report
// persistence (true with nil bytes). A non-nil error reports an unknown
// format or undecodable persisted artifacts.
func (s *Server) Trace(id, format string) ([]byte, bool, error) {
	switch format {
	case TraceFormatPerfetto, TraceFormatParaver:
	default:
		return nil, true, fmt.Errorf("server: unknown trace format %q (have %s, %s)",
			format, TraceFormatPerfetto, TraceFormatParaver)
	}
	view, ok := s.Get(id)
	if !ok || view.State != StateCompleted {
		return nil, false, nil
	}
	report, _ := readReport(s.opts.Store, view.Hash)
	if report == nil {
		return nil, true, nil
	}
	track, _ := readTelemetry(s.opts.Store, view.Hash)
	b, err := renderTrace(view.Spec, view.Hash, format, report, track)
	return b, true, err
}

// renderTrace derives the trace document from the persisted bytes. Pure:
// everything it reads is either persisted under the job's hash or part of
// the canonical spec, which is what makes the output reproducible across
// cache hits and server restarts.
func renderTrace(spec scenario.JobSpec, hash, format string,
	report, track []byte) ([]byte, error) {

	var rep struct {
		Timing *core.RunTiming `json:"timing"`
		Spans  obs.SpanSet     `json:"spans"`
	}
	if err := json.Unmarshal(report, &rep); err != nil {
		return nil, fmt.Errorf("server: decoding persisted report: %w", err)
	}
	var tk telemetry.Track
	if track != nil {
		if err := json.Unmarshal(track, &tk); err != nil {
			return nil, fmt.Errorf("server: decoding persisted telemetry: %w", err)
		}
	}

	m := runloop.Measured(tk, rep.Timing, rep.Spans.Phases)
	pop := &trace.POPComparison{Measured: m.Metrics.Report()}
	if rep.Timing != nil {
		if modeled, err := modeledPOP(spec); err == nil {
			r := modeled.Report()
			pop.Modeled = &r
		}
	}

	switch format {
	case TraceFormatPerfetto:
		meta := map[string]string{
			"hash":     hash,
			"scenario": spec.Scenario,
			"steps":    strconv.Itoa(spec.Steps),
			"backend":  trackBackend(spec, rep.Timing),
		}
		if rep.Timing != nil {
			meta["cores"] = strconv.Itoa(rep.Timing.Cores)
			meta["ranks"] = strconv.Itoa(rep.Timing.Ranks)
		}
		if name := spec.Exec.Machine; name != "" {
			// Already canonicalized by CanonicalHash at submission.
			meta["machine"] = name
		}
		return json.Marshal(m.Document(meta, pop))
	default: // TraceFormatParaver, validated above
		return renderParaver(hash, spec, m, pop), nil
	}
}

// trackBackend labels the trace with the engine that produced it.
func trackBackend(spec scenario.JobSpec, timing *core.RunTiming) string {
	if spec.Exec.Backend == scenario.BackendSerial || timing == nil {
		return "serial"
	}
	return "parallel"
}

// modeledPOP computes the closed-form POP prediction for the job's shape,
// resolving machine, cost calibration, and scenario physics exactly as the
// run itself did — the "modeled" column next to the measured metrics.
func modeledPOP(spec scenario.JobSpec) (trace.Metrics, error) {
	sc, err := scenario.Get(spec.Scenario)
	if err != nil {
		return trace.Metrics{}, err
	}
	_, cfg, err := sc.Generate(spec.Params)
	if err != nil {
		return trace.Metrics{}, err
	}
	machine, cost, cores, err := runloop.Shape(spec, cfg)
	if err != nil {
		return trace.Metrics{}, err
	}
	return experiments.PredictPOP(experiments.PredictShape{
		Machine:      machine,
		Cost:         cost,
		Cores:        cores,
		RanksPerNode: spec.RanksPerNode,
		N:            spec.Params.N, // canonical: already resolved
		NNeighbors:   spec.Params.NNeighbors,
		Steps:        spec.Steps,
		Gravity:      cfg.Gravity,
		IAD:          cfg.SPH.Gradients == sph.IAD,
	}), nil
}

// renderParaver renders the measured intervals as the ASCII Paraver-style
// timeline internal/trace draws, followed by the phase breakdown and the
// measured-vs-modeled POP table.
func renderParaver(hash string, spec scenario.JobSpec, m trace.Measured,
	pop *trace.POPComparison) []byte {

	var b strings.Builder
	fmt.Fprintf(&b, "# paraver timeline  scenario=%s steps=%d hash=%s\n",
		spec.Scenario, spec.Steps, hash)
	b.WriteString("# glyphs: # compute  M mpi  s sync  . idle\n\n")
	b.WriteString(trace.TimelineOf(m.Intervals, paraverWidth))
	b.WriteString("\nphase breakdown (by total seconds):\n")
	for _, ps := range trace.PhaseBreakdownOf(m.Intervals) {
		fmt.Fprintf(&b, "  %-12s compute %10.6fs  mpi %10.6fs  other %10.6fs\n",
			ps.Phase, ps.Compute, ps.MPI, ps.Other)
	}
	b.WriteString("\nPOP efficiency metrics:\n")
	writePOPLine(&b, "measured", pop.Measured)
	if pop.Modeled != nil {
		writePOPLine(&b, "modeled", *pop.Modeled)
	}
	return []byte(b.String())
}

func writePOPLine(b *strings.Builder, label string, r trace.POPReport) {
	fmt.Fprintf(b, "  %-8s ranks=%d runtime=%.6fs LB=%.4f CommE=%.4f ParE=%.4f\n",
		label, r.Ranks, r.Runtime, r.LoadBalance, r.CommEfficiency, r.ParallelEfficiency)
}
