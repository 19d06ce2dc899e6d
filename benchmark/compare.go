package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Verdicts of one workload x end-to-end metric row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareFiles prints the comparison of two set files, A the base and B the
// candidate, and reports whether any row is worse or B failed a higher
// share of its ops.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	var a, b setFile
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	return compareSets(w, &a, &b), nil
}

// judge gives the verdict for one metric: B's median against A's, with the
// bound the benchmark fixed and the spread between A's own runs.
//
// A worsening beyond the bound is worse. Where A's spread is wider than the
// bound the row cannot resolve a regression of the size the bound forbids,
// so it is unresolved — unless every run of B reads better than every run
// of A. A gain counts only when the medians differ by more than A's spread.
func judge(d metricDef, a, b summary) string {
	sign := 1.0 // positive change = worse
	if d.better == "higher" {
		sign = -1
	}
	change := sign * (b.Median - a.Median) / math.Abs(a.Median)
	if change > d.bound {
		return verdictWorse
	}
	allBetter := len(a.Values) > 0 && len(b.Values) > 0
	for _, x := range a.Values {
		for _, y := range b.Values {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	if a.spread() > d.bound {
		if allBetter {
			return verdictBetter
		}
		return verdictUnresolved
	}
	if -change > a.spread() {
		return verdictBetter
	}
	return verdictSame
}

func compareSets(w io.Writer, a, b *setFile) (worse bool) {
	fmt.Fprintf(w, "A: seed %d, %d s, %s, GOMAXPROCS %d    B: seed %d, %d s, %s, GOMAXPROCS %d\n",
		a.Seed, a.Seconds, a.GoVersion, a.GOMAXPROCS, b.Seed, b.Seconds, b.GoVersion, b.GOMAXPROCS)
	fmt.Fprintf(w, "\n%-14s %-22s %12s %25s %12s %25s %9s %6s  %s\n",
		"workload", "metric", "A median", "A [q1, q3] n", "B median", "B [q1, q3] n", "B/A", "bound", "verdict")
	iqr := func(s summary) string { return fmt.Sprintf("[%.5g, %.5g] %d", s.Q1, s.Q3, s.N) }
	for _, wl := range workloads {
		for _, d := range endToEnd {
			sa, okA := a.EndToEnd[wl.name][d.name]
			sb, okB := b.EndToEnd[wl.name][d.name]
			if !okA || !okB {
				continue
			}
			v := judge(d, sa, sb)
			if v == verdictWorse {
				worse = true
			}
			fmt.Fprintf(w, "%-14s %-22s %12.6g %25s %12.6g %25s %9.4f %5.0f%%  %s (%s is better)\n",
				wl.name, d.name, sa.Median, iqr(sa), sb.Median, iqr(sb), sb.Median/sa.Median, 100*d.bound, v, d.better)
		}
		oa, ob := a.Ops[wl.name], b.Ops[wl.name]
		fmt.Fprintf(w, "%-14s %-22s %12s %25s %12s\n", wl.name, "ops_failed/attempted",
			fmt.Sprintf("%d/%d", oa.Failed, oa.Attempted), "", fmt.Sprintf("%d/%d", ob.Failed, ob.Attempted))
		if oa.Attempted > 0 && ob.Attempted > 0 &&
			float64(ob.Failed)/float64(ob.Attempted) > float64(oa.Failed)/float64(oa.Attempted) {
			worse = true
			fmt.Fprintf(w, "%-14s B fails a higher share of its ops than A\n", wl.name)
		}
	}

	fmt.Fprintf(w, "\nper-layer deltas (one traced run each; counts must repeat exactly on one commit and seed)\n")
	for _, wl := range workloads {
		la, lb := a.PerLayer[wl.name], b.PerLayer[wl.name]
		type row struct {
			d        metricDef
			va, vb   float64
			deltaMS  float64
			isTiming bool
		}
		var rows []row
		for _, d := range perLayer {
			va, okA := la[d.name]
			vb, okB := lb[d.name]
			if !okA || !okB {
				continue
			}
			r := row{d: d, va: va.Value, vb: vb.Value}
			switch d.unit {
			case "ms":
				r.isTiming, r.deltaMS = true, vb.Value-va.Value
			case "us":
				r.isTiming, r.deltaMS = true, (vb.Value-va.Value)/1e3
			}
			rows = append(rows, r)
		}
		if len(rows) == 0 {
			continue
		}
		// The layer whose time moved most comes first: that is where a change
		// between the two sets landed.
		sort.SliceStable(rows, func(i, j int) bool {
			if rows[i].isTiming != rows[j].isTiming {
				return rows[i].isTiming
			}
			return math.Abs(rows[i].deltaMS) > math.Abs(rows[j].deltaMS)
		})
		fmt.Fprintf(w, "%s: largest time delta: %s (%+.3f ms)\n", wl.name, rows[0].d.name, rows[0].deltaMS)
		for _, r := range rows {
			note := ""
			if r.d.unit == "count" && r.va != r.vb {
				note = "  count differs"
			}
			ratio := "        -"
			if r.va != 0 {
				ratio = fmt.Sprintf("%9.4f", r.vb/r.va)
			}
			fmt.Fprintf(w, "  %-32s %14.6g %14.6g %+14.6g %s B/A  %s%s\n",
				r.d.name, r.va, r.vb, r.vb-r.va, ratio, r.d.unit, note)
		}
	}
	return worse
}
