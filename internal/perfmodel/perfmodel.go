// Package perfmodel models the two HPC systems of the paper's §5.2 well
// enough to reproduce strong-scaling *shape*: Piz Daint's hybrid Cray XC50
// partition (12-core Intel E5-2690 v3 nodes, Aries interconnect in a
// Dragonfly topology) and MareNostrum 4 (48-core dual Xeon Platinum 8160
// nodes, 100 Gb Omni-Path in a full fat tree). Absolute rates are
// calibrated, not measured — see EXPERIMENTS.md; the scaling analysis only
// relies on ratios (paper: "applications exhibit good strong scaling up to
// 16 compute nodes", stalling below ~1e4 particles/core).
package perfmodel

import (
	"fmt"
	"math"
)

// Machine describes one modeled HPC system.
type Machine struct {
	Name         string
	CoresPerNode int

	// CoreRate is relative per-core throughput (1.0 = Haswell E5-2690 v3
	// core). Skylake 8160 cores clock lower but are wider; net ~1.15.
	CoreRate float64

	// Network alpha-beta parameters. IntraAlpha applies within a node
	// (shared memory transport), InterAlpha across nodes.
	IntraAlpha float64 // seconds
	InterAlpha float64 // seconds
	Beta       float64 // seconds per byte (inverse bandwidth)

	// TopologyFactor scales InterAlpha with system size: Dragonfly adds a
	// small number of extra hops between groups; a full fat tree is flat.
	TopologyFactor func(nodes int) float64
}

// PizDaint returns the Cray XC50 hybrid partition model.
func PizDaint() *Machine {
	return &Machine{
		Name:         "Piz Daint (Cray XC50, Aries Dragonfly)",
		CoresPerNode: 12,
		CoreRate:     1.0,
		IntraAlpha:   0.4e-6,
		InterAlpha:   1.4e-6,
		Beta:         1.0 / 9.6e9, // ~9.6 GB/s effective per-link
		TopologyFactor: func(nodes int) float64 {
			// Dragonfly: min 1 group hop, +~30% when spanning many groups.
			if nodes <= 96 {
				return 1
			}
			return 1.3
		},
	}
}

// MareNostrum returns the MareNostrum 4 general-purpose partition model.
func MareNostrum() *Machine {
	return &Machine{
		Name:         "MareNostrum 4 (Skylake, Omni-Path fat tree)",
		CoresPerNode: 48,
		CoreRate:     1.15,
		IntraAlpha:   0.5e-6,
		InterAlpha:   1.1e-6,
		Beta:         1.0 / 12.1e9,
		TopologyFactor: func(nodes int) float64 {
			return 1 // full fat tree: uniform
		},
	}
}

// ByName returns a machine model by short name ("daint", "marenostrum").
func ByName(name string) (*Machine, error) {
	canon, err := CanonicalName(name)
	if err != nil {
		return nil, err
	}
	switch canon {
	case "daint":
		return PizDaint(), nil
	case "marenostrum":
		return MareNostrum(), nil
	}
	// Unreachable while this switch and CanonicalName agree; a loud panic
	// beats silently serving the wrong machine model if they ever diverge.
	panic(fmt.Sprintf("perfmodel: CanonicalName returned unhandled name %q", canon))
}

// CanonicalName maps a machine name or alias to its canonical short name,
// so two specs naming the same machine differently hash identically.
func CanonicalName(name string) (string, error) {
	switch name {
	case "daint", "pizdaint", "piz-daint":
		return "daint", nil
	case "marenostrum", "mn4", "marenostrum4":
		return "marenostrum", nil
	}
	return "", fmt.Errorf("perfmodel: unknown machine %q (have daint, marenostrum)", name)
}

// Net is a simmpi.CostModel over the machine for a given rank-to-node
// placement: ranksPerNode consecutive ranks share a node.
type Net struct {
	M            *Machine
	RanksPerNode int
	Nodes        int
}

// NewNet builds the cost model for nranks ranks packed ranksPerNode per node.
func (m *Machine) NewNet(nranks, ranksPerNode int) *Net {
	if ranksPerNode <= 0 {
		ranksPerNode = 1
	}
	nodes := (nranks + ranksPerNode - 1) / ranksPerNode
	return &Net{M: m, RanksPerNode: ranksPerNode, Nodes: nodes}
}

// PointToPoint implements simmpi.CostModel.
func (n *Net) PointToPoint(from, to, bytes int) float64 {
	alpha := n.M.IntraAlpha
	if from/n.RanksPerNode != to/n.RanksPerNode {
		alpha = n.M.InterAlpha * n.M.TopologyFactor(n.Nodes)
	}
	return alpha + float64(bytes)*n.M.Beta
}

// Collective implements simmpi.CostModel: log2(n) rounds of alpha plus a
// bandwidth term on the payload.
func (n *Net) Collective(nranks, bytes int) float64 {
	if nranks <= 1 {
		return 0
	}
	alpha := n.M.InterAlpha * n.M.TopologyFactor(n.Nodes)
	if n.Nodes == 1 {
		alpha = n.M.IntraAlpha
	}
	rounds := math.Ceil(math.Log2(float64(nranks)))
	return rounds*alpha + float64(bytes)*n.M.Beta
}

// NodeCount returns how many nodes `cores` cores occupy on the machine.
func (m *Machine) NodeCount(cores int) int {
	return (cores + m.CoresPerNode - 1) / m.CoresPerNode
}

// Layout places a run of cores cores at ranksPerNode ranks a node: 1 models
// MPI+OpenMP (one rank per node, the node's cores as its threads),
// CoresPerNode models MPI-only. There is at least one rank, never more ranks
// than cores, and at least one thread a rank.
func (m *Machine) Layout(cores, ranksPerNode int) (ranks, threads int) {
	cores, ranksPerNode = max(cores, 1), max(ranksPerNode, 1)
	ranks = min(m.NodeCount(cores)*ranksPerNode, cores)
	return ranks, cores / ranks
}

// PhaseSeconds converts a work quantity (abstract "operations") into
// simulated seconds on `threads` cores of this machine, honoring Amdahl's
// law with the given serial fraction. rate is operations per core-second.
func (m *Machine) PhaseSeconds(ops float64, rate float64, threads int, serialFraction float64) float64 {
	if rate <= 0 || ops <= 0 {
		return 0
	}
	if threads < 1 {
		threads = 1
	}
	t1 := ops / (rate * m.CoreRate)
	return serialFraction*t1 + (1-serialFraction)*t1/float64(threads)
}
