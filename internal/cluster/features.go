// Package cluster mines the persisted verification corpus for fleet-level
// anomaly observability: per-job feature vectors extracted from stored
// verify reports and telemetry tracks, robust-standardized (median/MAD),
// and fit with the RIMLE mixture of Coretto & Hennig (arXiv:1406.0808,
// with the breakdown-robustness analysis of arXiv:1309.6895) — k proper
// Gaussian components plus an improper constant-density noise component.
// Membership in the improper component IS the anomaly flag: regressions,
// SDC hits, bad seeds, and watchdog-tripped physics land there without any
// hand-tuned per-feature threshold. An agglomerative dendrogram with a
// cophenetic correlation (CPCC) score accompanies every analysis as the
// fit-quality check on the hierarchical structure of the fleet.
package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

// Feature groups selectable in a Spec. Each group contributes a fixed,
// documented set of columns to the feature vector (see featureSchema).
const (
	GroupNorms        = "norms"        // trimmed L1/L2/L∞ per compared field
	GroupPlateau      = "plateau"      // post-shock plateau relative error
	GroupConservation = "conservation" // conservation drift components
	GroupPhases       = "phases"       // lifecycle phase time shares
	GroupWatchdogs    = "watchdogs"    // physics watchdog trip mask
)

// FeatureGroups lists every group in canonical order (the order Canonical
// normalizes a spec's Features to, and the column order of the matrix).
var FeatureGroups = []string{
	GroupNorms, GroupPlateau, GroupConservation, GroupPhases, GroupWatchdogs,
}

// JobData is one job's contribution to an analysis: its store hash, its
// persisted verification report bytes (required), and its telemetry track
// bytes (optional — jobs stored before telemetry existed contribute a zero
// trip mask).
type JobData struct {
	Hash      string
	Report    []byte
	Telemetry []byte
}

// reportDoc is the persisted report JSON: the verification report plus the
// lifecycle span trace the server marshals next to it.
type reportDoc struct {
	verify.Report
	Spans *obs.SpanSet `json:"spans"`
}

// feature is one column of the matrix: a stable name and its extractor.
type feature struct {
	name  string
	group string
	get   func(doc *reportDoc, trips map[string]bool) float64
}

// fieldNorm locates one compared field's norms; absent fields (no analytic
// reference) contribute zeros.
func fieldNorm(doc *reportDoc, field string) verify.Norms {
	for _, f := range doc.Fields {
		if f.Field == field {
			return f.Norms
		}
	}
	return verify.Norms{}
}

// phaseShare is the named phase's fraction of the job's traced wall clock.
func phaseShare(doc *reportDoc, phase string) float64 {
	if doc.Spans == nil || doc.Spans.Total <= 0 {
		return 0
	}
	return doc.Spans.Seconds(phase) / doc.Spans.Total
}

// featureSchema returns the columns of the requested groups in canonical
// order. groups must already be canonical (validated, sorted, deduplicated).
func featureSchema(groups []string) []feature {
	want := map[string]bool{}
	for _, g := range groups {
		want[g] = true
	}
	var out []feature
	if want[GroupNorms] {
		for _, field := range []string{"density", "velocity", "pressure"} {
			field := field
			out = append(out,
				feature{field + ".trimmedL1", GroupNorms, func(d *reportDoc, _ map[string]bool) float64 {
					return fieldNorm(d, field).TrimmedL1
				}},
				feature{field + ".trimmedL2", GroupNorms, func(d *reportDoc, _ map[string]bool) float64 {
					return fieldNorm(d, field).TrimmedL2
				}},
				feature{field + ".trimmedLInf", GroupNorms, func(d *reportDoc, _ map[string]bool) float64 {
					return fieldNorm(d, field).TrimmedLInf
				}},
			)
		}
	}
	if want[GroupPlateau] {
		out = append(out, feature{"plateau.relError", GroupPlateau,
			func(d *reportDoc, _ map[string]bool) float64 {
				if d.Plateau == nil {
					return 0
				}
				return d.Plateau.RelError
			}})
	}
	if want[GroupConservation] {
		out = append(out,
			feature{"conservation.mass", GroupConservation, func(d *reportDoc, _ map[string]bool) float64 { return d.Conservation.Mass }},
			feature{"conservation.momentum", GroupConservation, func(d *reportDoc, _ map[string]bool) float64 { return d.Conservation.Momentum }},
			feature{"conservation.angMom", GroupConservation, func(d *reportDoc, _ map[string]bool) float64 { return d.Conservation.AngMom }},
			feature{"conservation.energy", GroupConservation, func(d *reportDoc, _ map[string]bool) float64 { return d.Conservation.Energy }},
		)
	}
	if want[GroupPhases] {
		for _, phase := range obs.LifecyclePhases {
			if phase == obs.PhasePersist {
				continue // measured after the report is written, so never in one
			}
			out = append(out, feature{"phase." + phase, GroupPhases,
				func(d *reportDoc, _ map[string]bool) float64 { return phaseShare(d, phase) }})
		}
	}
	if want[GroupWatchdogs] {
		for _, kind := range []string{
			telemetry.KindNaN, telemetry.KindDriftSlope,
			telemetry.KindDTCollapse, telemetry.KindImbalance,
		} {
			kind := kind
			out = append(out, feature{"watchdog." + kind, GroupWatchdogs,
				func(_ *reportDoc, trips map[string]bool) float64 {
					if trips[kind] {
						return 1
					}
					return 0
				}})
		}
	}
	return out
}

// matrix is the extracted fleet: one row per decodable job, column names,
// and the per-row identity (hash + scenario from the report header).
type matrix struct {
	names     []string
	rows      [][]float64
	hashes    []string
	scenarios []string
	skipped   []Skipped
}

// finite clamps non-finite feature values to a large finite sentinel so a
// NaN that escaped upstream sanitization cannot poison the median/MAD pass;
// the clamped magnitude still lands the row in the improper component.
func finite(v float64) float64 {
	const sentinel = 1e300
	if math.IsNaN(v) {
		return sentinel
	}
	if math.IsInf(v, 1) || v > sentinel {
		return sentinel
	}
	if math.IsInf(v, -1) || v < -sentinel {
		return -sentinel
	}
	return v
}

// extract builds the feature matrix for the canonical spec over the jobs.
// Jobs whose report does not decode — or whose scenario does not match the
// spec's filter — are recorded as skipped, never silently dropped.
func extract(spec Spec, jobs []JobData) matrix {
	schema := featureSchema(spec.Features)
	m := matrix{names: make([]string, len(schema))}
	for i, f := range schema {
		m.names[i] = f.name
	}
	for _, jd := range jobs {
		var doc reportDoc
		if err := json.Unmarshal(jd.Report, &doc); err != nil {
			m.skipped = append(m.skipped, Skipped{Hash: jd.Hash, Reason: fmt.Sprintf("undecodable report: %v", err)})
			continue
		}
		if spec.Scenario != "" && doc.Scenario != spec.Scenario {
			m.skipped = append(m.skipped, Skipped{Hash: jd.Hash,
				Reason: fmt.Sprintf("scenario %q filtered out", doc.Scenario)})
			continue
		}
		trips := map[string]bool{}
		if len(jd.Telemetry) > 0 {
			var track telemetry.Track
			if err := json.Unmarshal(jd.Telemetry, &track); err == nil {
				for _, kind := range track.Trips {
					trips[kind] = true
				}
			}
		}
		row := make([]float64, len(schema))
		for i, f := range schema {
			row[i] = finite(f.get(&doc, trips))
		}
		m.rows = append(m.rows, row)
		m.hashes = append(m.hashes, jd.Hash)
		m.scenarios = append(m.scenarios, doc.Scenario)
	}
	return m
}

// madConsistency rescales the MAD to the standard deviation of a normal
// distribution (1/Φ⁻¹(3/4)).
const madConsistency = 1.4826

// zClamp bounds standardized coordinates. Sentinel-valued features (NaN
// blowups persisted as 1e300) would otherwise overflow squared-distance
// arithmetic; at ±1e6 robust z-scores they are still unambiguous gross
// outliers for the improper component.
const zClamp = 1e6

// median returns the sample median (of a scratch copy; xs is not modified).
func median(xs []float64) float64 {
	scratch := append([]float64(nil), xs...)
	return selectMedian(scratch)
}

// selectMedian computes the median in place.
func selectMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return 0.5 * (xs[n/2-1] + xs[n/2])
}

// standardize robust-standardizes each column: z = (x - median) / scale
// with scale = 1.4826·MAD, falling back to the standard deviation when the
// MAD degenerates to zero (e.g. a binary trip mask), and dropping columns
// that are exactly constant (their names are reported, not silently
// vanished). Standardized values are clamped to ±zClamp.
func standardize(m matrix) (z [][]float64, used, dropped []string) {
	n := len(m.rows)
	if n == 0 {
		return nil, nil, nil
	}
	d := len(m.names)
	keep := make([]bool, d)
	center := make([]float64, d)
	scale := make([]float64, d)
	col := make([]float64, n)
	for j := 0; j < d; j++ {
		for i, row := range m.rows {
			col[i] = row[j]
		}
		med := median(col)
		dev := make([]float64, n)
		for i, v := range col {
			dev[i] = math.Abs(v - med)
		}
		s := madConsistency * selectMedian(dev)
		if s == 0 {
			// MAD degenerated (over half the values tie): fall back to the
			// standard deviation so rare-but-varying columns survive.
			var mean, ss float64
			for _, v := range col {
				mean += v
			}
			mean /= float64(n)
			for _, v := range col {
				ss += (v - mean) * (v - mean)
			}
			s = math.Sqrt(ss / float64(n))
		}
		if s == 0 || math.IsInf(s, 0) || math.IsNaN(s) {
			dropped = append(dropped, m.names[j])
			continue
		}
		keep[j] = true
		center[j], scale[j] = med, s
		used = append(used, m.names[j])
	}
	if len(used) == 0 {
		return nil, used, dropped
	}
	z = make([][]float64, n)
	for i, row := range m.rows {
		zr := make([]float64, 0, len(used))
		for j := 0; j < d; j++ {
			if !keep[j] {
				continue
			}
			v := (row[j] - center[j]) / scale[j]
			if v > zClamp {
				v = zClamp
			}
			if v < -zClamp {
				v = -zClamp
			}
			zr = append(zr, v)
		}
		z[i] = zr
	}
	return z, used, dropped
}
