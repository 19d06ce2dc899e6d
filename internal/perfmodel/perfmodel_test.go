package perfmodel

import (
	"math"
	"testing"
)

func TestMachineConstants(t *testing.T) {
	d := PizDaint()
	if d.CoresPerNode != 12 {
		t.Errorf("Piz Daint cores/node = %d, want 12 (XC50 hybrid partition)", d.CoresPerNode)
	}
	m := MareNostrum()
	if m.CoresPerNode != 48 {
		t.Errorf("MareNostrum cores/node = %d, want 48 (dual 24-core Skylake)", m.CoresPerNode)
	}
	if m.CoreRate <= d.CoreRate*0.9 {
		t.Errorf("Skylake core rate %g not >= Haswell %g", m.CoreRate, d.CoreRate)
	}
}

func TestNodeCount(t *testing.T) {
	d := PizDaint()
	cases := map[int]int{1: 1, 12: 1, 13: 2, 384: 32, 1536: 128}
	for cores, want := range cases {
		if got := d.NodeCount(cores); got != want {
			t.Errorf("NodeCount(%d) = %d, want %d", cores, got, want)
		}
	}
}

func TestLayout(t *testing.T) {
	d := PizDaint() // 12 cores a node
	for _, c := range []struct{ cores, rpn, ranks, threads int }{
		{48, 1, 4, 12},  // MPI+OpenMP: a rank a node, the node's cores its threads
		{48, 12, 48, 1}, // MPI-only
		{96, 48, 96, 1}, // more ranks a node than cores: never more ranks than cores
		{13, 1, 2, 6},   // a partly filled node still gets a rank
		{5, 12, 5, 1},   // ranks <= cores
		{12, 0, 1, 12},  // unset placement means one rank a node
		{0, 1, 1, 1},    // at least one rank, at least one thread
		{-3, -1, 1, 1},
		{7, 4, 4, 1}, // threads round down, never to zero
		{3, 2, 2, 1},
	} {
		ranks, threads := d.Layout(c.cores, c.rpn)
		if ranks != c.ranks || threads != c.threads {
			t.Errorf("Layout(%d, %d) = %d ranks x %d threads, want %d x %d",
				c.cores, c.rpn, ranks, threads, c.ranks, c.threads)
		}
	}
}

func TestNetBandwidthTerm(t *testing.T) {
	d := PizDaint()
	net := d.NewNet(24, 12)
	small := net.PointToPoint(0, 13, 1000)
	big := net.PointToPoint(0, 13, 1_000_000)
	// The bandwidth term must dominate for MB-scale messages.
	if big < small*10 {
		t.Errorf("1MB message (%g) not much slower than 1KB (%g)", big, small)
	}
	// ~1MB at ~9.6 GB/s is ~104 us plus latency.
	want := 1.4e-6 + 1e6/9.6e9
	if math.Abs(big-want) > 0.2*want {
		t.Errorf("1MB point-to-point = %g, want ~%g", big, want)
	}
}

func TestCollectiveLogScaling(t *testing.T) {
	d := PizDaint()
	net := d.NewNet(1024, 1)
	c2 := net.Collective(2, 0)
	c1024 := net.Collective(1024, 0)
	// log2(1024)/log2(2) = 10 rounds vs 1.
	if ratio := c1024 / c2; math.Abs(ratio-10) > 1e-9 {
		t.Errorf("collective round scaling = %g, want 10", ratio)
	}
	if net.Collective(1, 100) != 0 {
		t.Error("single-rank collective should be free")
	}
}

func TestPhaseSecondsEdges(t *testing.T) {
	m := PizDaint()
	if m.PhaseSeconds(100, 0, 4, 0) != 0 {
		t.Error("zero rate should cost nothing (guard, not Inf)")
	}
	if m.PhaseSeconds(100, 10, 0, 0) != m.PhaseSeconds(100, 10, 1, 0) {
		t.Error("threads<1 should clamp to 1")
	}
	// Fully serial phase ignores threads.
	if m.PhaseSeconds(100, 10, 64, 1) != m.PhaseSeconds(100, 10, 1, 1) {
		t.Error("serial fraction 1 should not scale with threads")
	}
}
