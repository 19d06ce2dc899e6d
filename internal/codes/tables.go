package codes

import (
	"fmt"
	"strings"
)

// kernelDisplay maps internal kernel names to the paper's Table 1 spelling.
func kernelDisplay(c *Code) string {
	switch c.Name {
	case "SPHYNX":
		return "Sinc"
	case "ChaNGa":
		return "Wendland,M4 spline"
	default:
		return "Wendland"
	}
}

func gradientDisplay(c *Code) string {
	if c.Name == "SPHYNX" {
		return "IAD"
	}
	return "Kernel derivatives"
}

func volumeDisplay(c *Code) string {
	if c.Name == "SPHYNX" {
		return "Generalized"
	}
	return "Standard"
}

// Table1 renders the paper's Table 1: differences and similarities between
// the parent codes (physics).
func Table1() string {
	var sb strings.Builder
	sb.WriteString("Table 1: Differences and similarities between SPH-flow, SPHYNX, and ChaNGa\n")
	fmt.Fprintf(&sb, "%-10s %-8s %-20s %-20s %-12s %-30s %-18s %-22s\n",
		"SPH Code", "Version", "Kernel", "Gradients", "Volume", "Time-Stepping", "Neighbour", "Self-Gravity")
	for _, c := range []*Code{SPHYNX(), ChaNGa(), SPHflow()} {
		fmt.Fprintf(&sb, "%-10s %-8s %-20s %-20s %-12s %-30s %-18s %-22s\n",
			c.Name, c.Version, kernelDisplay(c), gradientDisplay(c), volumeDisplay(c),
			c.SteppingDesc, "Tree Walk", c.GravityDesc)
	}
	return sb.String()
}

// Table2 renders the paper's Table 2: the scientific outlook of the
// SPH-EXA mini-app — every option this repository implements.
func Table2() string {
	var sb strings.Builder
	sb.WriteString("Table 2: Scientific characteristics of the SPH-EXA mini-app\n")
	rows := [][2]string{
		{"Kernel", "Sinc, M4 spline, Wendland (C2/C4/C6)"},
		{"Gradients", "IAD, Kernel derivatives"},
		{"Volume Elements", "Generalized, Standard"},
		{"Mass of Particles", "Equal, Variable"},
		{"Time-Stepping", "Equal (global) and Adaptive"},
		{"Neighbour Discovery", "Global/Individual Tree Walk (linear octree)"},
		{"Self-Gravity", "Multipoles (monopole / 4-pole / 16-pole)"},
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-22s %s\n", r[0], r[1])
	}
	return sb.String()
}

// Table3 renders the paper's Table 3: computer-science aspects of the
// parent codes.
func Table3() string {
	var sb strings.Builder
	sb.WriteString("Table 3: Computer science aspects of SPH-flow, SPHYNX and ChaNGa\n")
	fmt.Fprintf(&sb, "%-10s %-32s %-18s %-12s %-10s %-12s %-20s %8s\n",
		"SPH Code", "Domain Decomposition", "Load Balancing", "Chkpt-Rst", "Precision", "Language", "Parallelization", "#LOC")
	for _, c := range []*Code{SPHYNX(), ChaNGa(), SPHflow()} {
		fmt.Fprintf(&sb, "%-10s %-32s %-18s %-12s %-10s %-12s %-20s %8d\n",
			c.Name, c.DecompDesc, c.LoadBalancing, c.CheckpointDesc,
			c.Precision, c.Language, c.Parallelization, c.LOC)
	}
	return sb.String()
}

// Table4 renders the paper's Table 4: computer-science features of the
// mini-app.
func Table4() string {
	var sb strings.Builder
	sb.WriteString("Table 4: Computer science features of the SPH-EXA mini-app\n")
	rows := [][2]string{
		{"Domain Decomposition", "Orthogonal Recursive Bisection, Space Filling Curves (Morton, Hilbert)"},
		{"Parallelization", "Simulated MPI (goroutine ranks) + intra-rank threading"},
		{"Load Balancing", "Dynamic re-decomposition weighted by per-particle neighbor counts"},
		{"Checkpoint-Restart", "Optimal (Daly) interval; one directory keeping the two newest"},
		{"Error Detection", "Silent-data-corruption detectors (structural, conservation, replication)"},
		{"Precision", "64-bit"},
		{"Language", "Go (reference reproduction of the C++ mini-app design)"},
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-22s %s\n", r[0], r[1])
	}
	return sb.String()
}

// Table5 renders the paper's Table 5: the test simulations.
func Table5() string {
	var sb strings.Builder
	sb.WriteString("Table 5: Test simulations and their characteristics\n")
	fmt.Fprintf(&sb, "%-24s %-52s %-18s %-12s %-28s %-26s\n",
		"Test Simulation", "Description", "Domain Size", "Sim. Length", "SPH Codes", "Test Platform")
	fmt.Fprintf(&sb, "%-24s %-52s %-18s %-12s %-28s %-26s\n",
		"Rotating Square Patch", "Rotation of a free-surface square fluid patch",
		"3D, 1e6 particles", "20 steps", "SPHYNX, ChaNGa, SPH-flow", "Piz Daint, MareNostrum 4")
	fmt.Fprintf(&sb, "%-24s %-52s %-18s %-12s %-28s %-26s\n",
		"Evrard Collapse", "Adiabatic collapse of a cold static gas sphere (w/ self-gravity)",
		"3D, 1e6 particles", "20 steps", "SPHYNX, ChaNGa", "Piz Daint")
	return sb.String()
}
