// Package trace is the mini-app's Extrae substitute (paper §5.2): it records
// per-rank, per-phase intervals of simulated execution, computes the POP
// Centre-of-Excellence efficiency metrics the paper reports (load balance,
// communication efficiency, computation scalability, global efficiency), and
// renders an ASCII Paraver-style timeline like the paper's Figure 4.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// State classifies an interval, mirroring the Extrae states in Figure 4:
// computing (blue), MPI communication (orange), thread synchronization
// (red), fork/join (yellow), idle (black).
type State int

const (
	// Compute is useful computation.
	Compute State = iota
	// MPI is communication (send/recv/collective, including wait).
	MPI
	// Sync is thread synchronization overhead.
	Sync
	// ForkJoin is parallel-region management overhead.
	ForkJoin
	// Idle is time with no work.
	Idle
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Compute:
		return "compute"
	case MPI:
		return "mpi"
	case Sync:
		return "sync"
	case ForkJoin:
		return "fork-join"
	case Idle:
		return "idle"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// glyph is the timeline character for a state.
func (s State) glyph() byte {
	switch s {
	case Compute:
		return '#'
	case MPI:
		return 'M'
	case Sync:
		return 's'
	case ForkJoin:
		return 'f'
	default:
		return '.'
	}
}

// Interval is one traced span on one rank.
type Interval struct {
	Rank       int
	Phase      string // paper Figure 4 phases: "A".."J"
	State      State
	Start, End float64 // simulated seconds
}

// Tracer collects intervals from concurrent ranks.
type Tracer struct {
	mu        sync.Mutex
	intervals []Interval
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Record adds an interval; safe for concurrent use.
func (t *Tracer) Record(rank int, phase string, state State, start, end float64) {
	if end < start {
		start, end = end, start
	}
	t.mu.Lock()
	t.intervals = append(t.intervals, Interval{Rank: rank, Phase: phase, State: state, Start: start, End: end})
	t.mu.Unlock()
}

// Intervals returns a copy of the recorded intervals.
func (t *Tracer) Intervals() []Interval {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Interval(nil), t.intervals...)
}

// Metrics are the POP multiplicative efficiency model values (all in [0,1]
// for well-formed traces; paper §5.2 discusses exactly these).
type Metrics struct {
	Ranks int
	// Runtime is the run's parallel wall-clock.
	Runtime float64
	// TotalUseful, AvgUseful and MaxUseful are the sum, mean and maximum of
	// the per-rank useful-computation totals.
	TotalUseful, AvgUseful, MaxUseful float64
	// TotalMPI is summed point-to-point (halo) time.
	TotalMPI float64
	// LoadBalance = AvgUseful / MaxUseful.
	LoadBalance float64
	// CommEfficiency = MaxUseful / Runtime.
	CommEfficiency float64
	// ParallelEfficiency = LoadBalance * CommEfficiency = AvgUseful/Runtime.
	ParallelEfficiency float64
}

// POP computes the POP efficiencies of one run from every rank's phase
// totals and the run's wall-clock. It is the only place the efficiencies
// are computed — the served scaling curves, the paper-figure harness, the
// reassembled job trace and the closed-form prediction all call it — and it
// adds the ranks in slice (rank) order, so equal inputs give equal bits.
func POP(ranks []RankTotals, runtime float64) Metrics {
	m := Metrics{Ranks: len(ranks), Runtime: runtime}
	for _, rk := range ranks {
		m.TotalUseful += rk.Compute
		m.TotalMPI += rk.Halo
		m.MaxUseful = max(m.MaxUseful, rk.Compute)
	}
	if m.Ranks > 0 {
		m.AvgUseful = m.TotalUseful / float64(m.Ranks)
	}
	if m.MaxUseful > 0 {
		m.LoadBalance = m.AvgUseful / m.MaxUseful
	}
	if runtime > 0 {
		m.CommEfficiency = m.MaxUseful / runtime
	}
	m.ParallelEfficiency = m.LoadBalance * m.CommEfficiency
	return m
}

// ComputationScalability is the POP cross-scale metric: the ratio of total
// useful computation at the reference scale to the current scale (1 = no
// redundant work added by scaling out). loadRatio is cur's problem size
// over ref's: 1 along a strong ladder; a weak ladder grows the work with
// the machine, so the reference is scaled to cur's particle load and the
// metric still reads "redundant work added", not "bigger problem".
func ComputationScalability(ref, cur Metrics, loadRatio float64) float64 {
	if cur.TotalUseful == 0 {
		return 0
	}
	return ref.TotalUseful * loadRatio / cur.TotalUseful
}

// GlobalEfficiency combines parallel efficiency with computation
// scalability, the headline number whose decline from 48 to 192 cores the
// paper attributes to load imbalance.
func GlobalEfficiency(ref, cur Metrics, loadRatio float64) float64 {
	return cur.ParallelEfficiency * ComputationScalability(ref, cur, loadRatio)
}

// TimelineOf renders an interval slice as an ASCII Paraver-style
// visualization: one row per rank, time bucketed into `width` columns, each
// cell showing the dominant state ('#'=compute, 'M'=MPI, 's'=sync,
// 'f'=fork-join, '.'=idle), topped by a phase ruler (the paper's A..J
// annotations).
func TimelineOf(ivs []Interval, width int) string {
	if len(ivs) == 0 || width <= 0 {
		return "(empty trace)\n"
	}
	lo, hi := ivs[0].Start, ivs[0].End
	maxRank := 0
	for _, iv := range ivs {
		if iv.Start < lo {
			lo = iv.Start
		}
		if iv.End > hi {
			hi = iv.End
		}
		if iv.Rank > maxRank {
			maxRank = iv.Rank
		}
	}
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	nr := maxRank + 1
	// Dominant state per (rank, bucket) by accumulated time; idle default.
	cells := make([][]map[State]float64, nr)
	phaseRow := make([]map[string]float64, width)
	for r := range cells {
		cells[r] = make([]map[State]float64, width)
	}
	for i := range phaseRow {
		phaseRow[i] = map[string]float64{}
	}
	for _, iv := range ivs {
		b0 := int(float64(width) * (iv.Start - lo) / span)
		b1 := int(float64(width) * (iv.End - lo) / span)
		if b1 >= width {
			b1 = width - 1
		}
		for b := b0; b <= b1; b++ {
			// Overlap of the interval with bucket b.
			bs := lo + span*float64(b)/float64(width)
			be := lo + span*float64(b+1)/float64(width)
			ov := min(iv.End, be) - max(iv.Start, bs)
			if ov <= 0 {
				continue
			}
			if cells[iv.Rank][b] == nil {
				cells[iv.Rank][b] = map[State]float64{}
			}
			cells[iv.Rank][b][iv.State] += ov
			if iv.Phase != "" {
				phaseRow[b][iv.Phase] += ov
			}
		}
	}
	var sb strings.Builder
	// Phase ruler.
	sb.WriteString("phase ")
	for b := 0; b < width; b++ {
		best, bestV := " ", 0.0
		for ph, v := range phaseRow[b] {
			if v > bestV || (v == bestV && ph < best) {
				best, bestV = ph, v
			}
		}
		sb.WriteString(best[:1])
	}
	sb.WriteByte('\n')
	for r := 0; r < nr; r++ {
		fmt.Fprintf(&sb, "r%-4d ", r)
		for b := 0; b < width; b++ {
			m := cells[r][b]
			if len(m) == 0 {
				sb.WriteByte(' ')
				continue
			}
			var bestS State
			bestV := -1.0
			// Deterministic tie-break: iterate states in fixed order.
			for _, st := range []State{Compute, MPI, Sync, ForkJoin, Idle} {
				if v, ok := m[st]; ok && v > bestV {
					bestS, bestV = st, v
				}
			}
			sb.WriteByte(bestS.glyph())
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("legend: #=compute M=mpi s=sync f=fork-join .=idle\n")
	return sb.String()
}

// PhaseBreakdownOf sums an interval slice's time per phase per state across
// ranks, sorted by phase label — the numeric companion to the timeline.
func PhaseBreakdownOf(ivs []Interval) []PhaseStat {
	agg := map[string]*PhaseStat{}
	for _, iv := range ivs {
		ph := iv.Phase
		if ph == "" {
			ph = "(untagged)"
		}
		st, ok := agg[ph]
		if !ok {
			st = &PhaseStat{Phase: ph}
			agg[ph] = st
		}
		d := iv.End - iv.Start
		switch iv.State {
		case Compute:
			st.Compute += d
		case MPI:
			st.MPI += d
		default:
			st.Other += d
		}
	}
	out := make([]PhaseStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Phase < out[j].Phase })
	return out
}

// PhaseStat aggregates one phase across ranks.
type PhaseStat struct {
	Phase   string
	Compute float64
	MPI     float64
	Other   float64
}
