package trace

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRecordAndIntervals(t *testing.T) {
	tr := New()
	tr.Record(0, "A", Compute, 0, 1)
	tr.Record(1, "A", MPI, 2, 1) // reversed: must normalize
	ivs := tr.Intervals()
	if len(ivs) != 2 {
		t.Fatalf("%d intervals", len(ivs))
	}
	if ivs[1].Start != 1 || ivs[1].End != 2 {
		t.Fatalf("reversed interval not normalized: %+v", ivs[1])
	}
}

func TestConcurrentRecord(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Record(r, "E", Compute, float64(i), float64(i+1))
			}
		}(r)
	}
	wg.Wait()
	if got := len(tr.Intervals()); got != 800 {
		t.Fatalf("%d intervals, want 800", got)
	}
}

func TestAnalyzePerfectBalance(t *testing.T) {
	ranks := make([]RankTotals, 4)
	for r := range ranks {
		ranks[r] = RankTotals{Rank: r, Compute: 10, Seconds: 10}
	}
	m := POP(ranks, 10)
	if m.Ranks != 4 {
		t.Fatalf("ranks = %d", m.Ranks)
	}
	if math.Abs(m.LoadBalance-1) > 1e-12 {
		t.Errorf("LoadBalance = %g, want 1", m.LoadBalance)
	}
	if math.Abs(m.CommEfficiency-1) > 1e-12 {
		t.Errorf("CommEfficiency = %g, want 1", m.CommEfficiency)
	}
	if math.Abs(m.ParallelEfficiency-1) > 1e-12 {
		t.Errorf("ParallelEfficiency = %g", m.ParallelEfficiency)
	}
}

func TestAnalyzeImbalance(t *testing.T) {
	// Rank 0 computes 10s, rank 1 computes 5s then waits in MPI.
	m := POP([]RankTotals{
		{Rank: 0, Compute: 10, Seconds: 10},
		{Rank: 1, Compute: 5, Halo: 5, Seconds: 10},
	}, 10)
	// avg useful 7.5, max useful 10 -> LB 0.75.
	if math.Abs(m.LoadBalance-0.75) > 1e-12 {
		t.Errorf("LoadBalance = %g, want 0.75", m.LoadBalance)
	}
	if math.Abs(m.CommEfficiency-1) > 1e-12 {
		t.Errorf("CommEfficiency = %g, want 1 (critical path all compute)", m.CommEfficiency)
	}
	if m.TotalMPI != 5 || m.TotalUseful != 15 {
		t.Errorf("TotalMPI = %g, TotalUseful = %g", m.TotalMPI, m.TotalUseful)
	}
}

func TestAnalyzeCommBound(t *testing.T) {
	m := POP([]RankTotals{{Compute: 2, Halo: 8, Seconds: 10}}, 10)
	if math.Abs(m.CommEfficiency-0.2) > 1e-12 {
		t.Errorf("CommEfficiency = %g, want 0.2", m.CommEfficiency)
	}
}

func TestComputationScalabilityAndGlobalEff(t *testing.T) {
	ref := Metrics{Ranks: 1, TotalUseful: 100, ParallelEfficiency: 1}
	// Scaled run: 4 ranks doing 30 each = 120 total (20% redundant work).
	cur := Metrics{Ranks: 4, TotalUseful: 120, ParallelEfficiency: 0.9}
	cs := ComputationScalability(ref, cur, 1)
	if math.Abs(cs-100.0/120.0) > 1e-12 {
		t.Errorf("ComputationScalability = %g", cs)
	}
	ge := GlobalEfficiency(ref, cur, 1)
	if math.Abs(ge-0.9*100.0/120.0) > 1e-12 {
		t.Errorf("GlobalEfficiency = %g", ge)
	}
	// A weak ladder that quadrupled the problem: 480 total is no redundancy
	// beyond the strong case's 20%.
	cur.TotalUseful = 480
	if cs := ComputationScalability(ref, cur, 4); math.Abs(cs-100.0/120.0) > 1e-12 {
		t.Errorf("weak ComputationScalability = %g", cs)
	}
	if ComputationScalability(ref, Metrics{}, 1) != 0 {
		t.Error("zero current work should give 0")
	}
}

func TestTimelineRendering(t *testing.T) {
	tr := New()
	tr.Record(0, "A", Compute, 0, 2)
	tr.Record(0, "E", MPI, 2, 4)
	tr.Record(1, "A", Compute, 0, 1)
	tr.Record(1, "A", Idle, 1, 4)
	out := TimelineOf(tr.Intervals(), 40)
	if !strings.Contains(out, "r0") || !strings.Contains(out, "r1") {
		t.Fatalf("missing rank rows:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Errorf("no compute glyphs:\n%s", out)
	}
	if !strings.Contains(out, "M") {
		t.Errorf("no MPI glyphs:\n%s", out)
	}
	if !strings.Contains(out, ".") {
		t.Errorf("no idle glyphs:\n%s", out)
	}
	if !strings.Contains(out, "phase") {
		t.Errorf("no phase ruler:\n%s", out)
	}
	if !strings.Contains(out, "legend") {
		t.Errorf("no legend:\n%s", out)
	}
}

func TestTimelineEmpty(t *testing.T) {
	tr := New()
	if out := TimelineOf(tr.Intervals(), 10); !strings.Contains(out, "empty") {
		t.Errorf("empty timeline = %q", out)
	}
	tr.Record(0, "A", Compute, 0, 1)
	if out := TimelineOf(tr.Intervals(), 0); !strings.Contains(out, "empty") {
		t.Errorf("zero-width timeline = %q", out)
	}
}

func TestPhaseBreakdown(t *testing.T) {
	tr := New()
	tr.Record(0, "A", Compute, 0, 3)
	tr.Record(1, "A", Compute, 0, 2)
	tr.Record(0, "I", MPI, 3, 5)
	tr.Record(0, "", Sync, 5, 6)
	stats := PhaseBreakdownOf(tr.Intervals())
	if len(stats) != 3 {
		t.Fatalf("%d phases", len(stats))
	}
	// Sorted by phase label; "(untagged)" < "A" < "I".
	if stats[0].Phase != "(untagged)" || stats[1].Phase != "A" || stats[2].Phase != "I" {
		t.Fatalf("order = %v %v %v", stats[0].Phase, stats[1].Phase, stats[2].Phase)
	}
	if stats[1].Compute != 5 {
		t.Errorf("phase A compute = %g, want 5", stats[1].Compute)
	}
	if stats[2].MPI != 2 {
		t.Errorf("phase I MPI = %g", stats[2].MPI)
	}
	if stats[0].Other != 1 {
		t.Errorf("untagged other = %g", stats[0].Other)
	}
}

func TestStateStrings(t *testing.T) {
	for _, s := range []State{Compute, MPI, Sync, ForkJoin, Idle, State(99)} {
		if s.String() == "" {
			t.Errorf("empty name for state %d", int(s))
		}
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	m := POP(nil, 0)
	if m != (Metrics{}) {
		t.Errorf("empty metrics = %+v", m)
	}
}
