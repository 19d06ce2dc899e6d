package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden.json from the current code")

// goldenMembers is a fixed synthetic [arm][point] grid: two arms over a
// four-point ladder at twelve cores per rank (1, 3, 15 and 64 ranks), every
// rank's compute share different from its neighbours' so that summation
// order, the maximum and the mean all show in the last bits. perCore > 0
// makes it a weak ladder.
func goldenMembers(cores []int, perCore int) [][]ScalingMemberTiming {
	members := make([][]ScalingMemberTiming, 2)
	for arm := range members {
		slow := 1 + 0.17*float64(arm)
		for pi, c := range cores {
			n, work := 6000, 41.3
			if perCore > 0 {
				n = perCore * c
				work *= float64(c) / float64(cores[0])
			}
			nr := c / cores[0]
			// Scaling out adds a little redundant work per point; the third
			// point is pushed off the curve so the trimmed fit has something
			// to drop.
			perRank := slow * work * (1 + 0.04*float64(pi)) / float64(nr)
			if pi == 2 {
				perRank *= 1.9
			}
			tm := core.RunTiming{Cores: c, Ranks: nr, ThreadsPerRank: cores[0], Steps: 3}
			for r := 0; r < nr; r++ {
				compute := perRank * (1 - 0.031*float64((r*7+arm*3+pi)%5))
				rt := core.RankTiming{
					Rank:       r,
					Compute:    compute,
					Halo:       0.0137 * float64(pi) * float64(1+r%3),
					Collective: 0.21*slow + (perRank - compute) + 0.0011*float64(r%7),
				}
				rt.Seconds = rt.Compute + rt.Halo + rt.Collective
				tm.PerRank = append(tm.PerRank, rt)
				tm.Seconds = max(tm.Seconds, rt.Seconds)
			}
			members[arm] = append(members[arm], ScalingMemberTiming{
				Cores: c, N: n, Hash: "member-" + string(rune('a'+arm)) + string(rune('0'+pi)), Timing: tm,
			})
		}
	}
	return members
}

// TestBuildScalingResultGolden pins every served scaling number — speedup,
// efficiency, Karp-Flatt, the POP block, the trimmed Amdahl fit, the paired
// ratios — as the exact floats, not just the keys: the marshalled result of
// a fixed synthetic grid, once strong and once weak, against checked-in
// bytes.
func TestBuildScalingResultGolden(t *testing.T) {
	cores := []int{12, 36, 180, 768}
	sw := ScalingSweep{
		Base:  scenario.JobSpec{Spec: scenario.Spec{Scenario: "sod", Steps: 3}},
		Cores: cores,
		Arms: []ScalingArm{
			{Name: "daint", Exec: scenario.Exec{Machine: "daint"}},
			{Name: "marenostrum/changa", Exec: scenario.Exec{Machine: "marenostrum", Cost: "changa"}},
		},
	}
	strong, err := BuildScalingResult(sw, goldenMembers(cores, 0))
	if err != nil {
		t.Fatal(err)
	}
	sw.Mode, sw.ParticlesPerCore = ScalingWeak, 500
	weak, err := BuildScalingResult(sw, goldenMembers(cores, sw.ParticlesPerCore))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(map[string]*ScalingResult{"strong": strong, "weak": weak}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	const path = "testdata/scaling_result.golden.json"
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("scaling result differs from %s (rerun with -update only for an intended change of the served numbers):\n%s", path, got)
	}
}
