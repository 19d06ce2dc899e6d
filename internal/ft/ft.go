// Package ft implements the fault-tolerance features the mini-app commits
// to in paper Table 4: checkpoint/restart, with the optimal (Young/Daly)
// interval as a model, and silent-data-corruption detection [6, 44] via
// structural checks, checksum replication, and physics-based conservation
// bounds. Checkpoints go to one directory that keeps the two newest, so a
// corrupted newest checkpoint still leaves an older one to restore.
package ft

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/conserve"
	"repro/internal/part"
)

// DalyInterval returns the first-order optimal checkpoint interval
// sqrt(2 * C * MTBF) for checkpoint cost C and system mean time between
// failures (Young 1974; Daly 2006 higher-order form used when C is not
// small relative to MTBF).
func DalyInterval(checkpointCost, mtbf float64) float64 {
	if checkpointCost <= 0 || mtbf <= 0 {
		return math.Inf(1)
	}
	if checkpointCost < mtbf/2 {
		// Daly's refined expression.
		x := math.Sqrt(2 * checkpointCost * mtbf)
		return x*(1+math.Sqrt(checkpointCost/(2*mtbf))/3+checkpointCost/(9*mtbf)) - checkpointCost
	}
	return mtbf
}

// keep is how many checkpoints a directory retains: the newest, and one to
// fall back on when the newest is corrupt.
const keep = 2

// Checkpointer writes particle-set checkpoints into Dir and restores the
// newest valid one.
type Checkpointer struct {
	Dir string
}

// list returns the directory's checkpoint files, oldest first: the step in
// a name is zero-padded, so name order is step order.
func (c *Checkpointer) list() []string {
	files, _ := filepath.Glob(filepath.Join(c.Dir, "ckpt-*.sph")) // the pattern is valid
	sort.Strings(files)
	return files
}

// Write checkpoints ps at the given step and simulation time, then removes
// all but the newest keep checkpoints.
func (c *Checkpointer) Write(step int, simTime float64, ps *part.Set) error {
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return fmt.Errorf("ft: creating checkpoint directory: %w", err)
	}
	path := filepath.Join(c.Dir, fmt.Sprintf("ckpt-%09d.sph", step))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	// Header: step and time, then the self-checksummed particle payload.
	if _, err := fmt.Fprintf(f, "SPHEXA %d %.17g\n", step, simTime); err != nil {
		f.Close()
		return err
	}
	if _, err := ps.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	files := c.list()
	for len(files) > keep {
		if err := os.Remove(files[0]); err != nil {
			return err
		}
		files = files[1:]
	}
	return nil
}

// Restore loads the newest valid checkpoint. A corrupted file (checksum
// mismatch) is skipped in favor of the older one kept beside it.
func (c *Checkpointer) Restore() (*part.Set, int, float64, error) {
	files := c.list()
	if len(files) == 0 {
		return nil, 0, 0, fmt.Errorf("ft: no checkpoints found")
	}
	var firstErr error
	for i := len(files) - 1; i >= 0; i-- {
		ps, step, simTime, err := readCheckpoint(files[i])
		if err == nil {
			return ps, step, simTime, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, 0, 0, fmt.Errorf("ft: all checkpoints corrupted (first error: %w)", firstErr)
}

func readCheckpoint(path string) (*part.Set, int, float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	var step int
	var simTime float64
	if _, err := fmt.Fscanf(f, "SPHEXA %d %g\n", &step, &simTime); err != nil {
		return nil, 0, 0, fmt.Errorf("ft: bad checkpoint header in %s: %w", path, err)
	}
	ps := part.New(0)
	if _, err := ps.ReadFrom(f); err != nil {
		return nil, 0, 0, fmt.Errorf("ft: %s: %w", path, err)
	}
	return ps, step, simTime, nil
}

// --- Silent data corruption detection ---------------------------------------

// Verdict is a detector's conclusion.
type Verdict struct {
	Corrupted bool
	Detector  string
	Detail    string
}

// Detector inspects simulation state for silent corruption.
type Detector interface {
	Name() string
	Check(ps *part.Set, st conserve.State) Verdict
}

// StructuralDetector runs part.Set.Validate: field-length coherence,
// positivity of mass and h, finiteness of positions and velocities.
type StructuralDetector struct{}

// Name implements Detector.
func (StructuralDetector) Name() string { return "structural" }

// Check implements Detector.
func (StructuralDetector) Check(ps *part.Set, _ conserve.State) Verdict {
	if err := ps.Validate(); err != nil {
		return Verdict{Corrupted: true, Detector: "structural", Detail: err.Error()}
	}
	return Verdict{Detector: "structural"}
}

// ConservationDetector flags drifts of conserved quantities beyond
// tolerance relative to a reference snapshot — a physics-based detector no
// checksum can replace (it also catches *algorithmic* corruption).
type ConservationDetector struct {
	Ref conserve.State
	// Tolerance is the acceptable relative drift (e.g. 0.05).
	Tolerance float64
}

// massTolerance bounds the relative mass drift the conservation detector
// accepts whatever its Tolerance. Mass is a sum of per-particle constants:
// summed in a fixed order it does not move at all, and in another order
// only by rounding, so any larger drift is corruption.
const massTolerance = 1e-12

// Name implements Detector.
func (d *ConservationDetector) Name() string { return "conservation" }

// Check implements Detector.
func (d *ConservationDetector) Check(ps *part.Set, st conserve.State) Verdict {
	if err := st.CheckFinite(); err != nil {
		return Verdict{Corrupted: true, Detector: "conservation", Detail: err.Error()}
	}
	drift := conserve.Compare(d.Ref, st)
	if drift.Mass > massTolerance {
		return Verdict{Corrupted: true, Detector: "conservation",
			Detail: fmt.Sprintf("mass drift %.3e", drift.Mass)}
	}
	if w := drift.Worst(); w > d.Tolerance {
		return Verdict{Corrupted: true, Detector: "conservation",
			Detail: fmt.Sprintf("conservation drift %s", drift)}
	}
	return Verdict{Detector: "conservation"}
}

// ReplicaDetector compares state checksums computed by independent replicas
// of the same computation (selective replication, paper §5: "combination of
// selective replication, ABFT, and optimal checkpointing"). It needs the
// replicas' checksums, so it is not a Detector of one state.
type ReplicaDetector struct{}

// CompareReplicas returns a verdict from N replica checksums: any
// disagreement flags corruption (with 2 replicas detection only; with >= 3,
// majority voting could also correct — reported in Detail).
func (ReplicaDetector) CompareReplicas(sums []uint64) Verdict {
	if len(sums) < 2 {
		return Verdict{Detector: "replication", Detail: "insufficient replicas"}
	}
	counts := map[uint64]int{}
	for _, s := range sums {
		counts[s]++
	}
	if len(counts) == 1 {
		return Verdict{Detector: "replication"}
	}
	best, bestN := uint64(0), 0
	for s, n := range counts {
		if n > bestN {
			best, bestN = s, n
		}
	}
	detail := fmt.Sprintf("replicas disagree (%d distinct checksums)", len(counts))
	if bestN > len(sums)/2 {
		detail += fmt.Sprintf("; majority %#x recoverable", best)
	}
	return Verdict{Corrupted: true, Detector: "replication", Detail: detail}
}

// Suite runs detectors in order and returns the first corruption verdict.
type Suite struct {
	Detectors []Detector
}

// Check implements the combined detection pass.
func (s *Suite) Check(ps *part.Set, st conserve.State) Verdict {
	for _, d := range s.Detectors {
		if v := d.Check(ps, st); v.Corrupted {
			return v
		}
	}
	return Verdict{}
}

// --- Fault injection (testing/validation) -----------------------------------

// InjectBitFlip flips one bit of the chosen field of particle i, modeling a
// DRAM single-event upset (the paper cites large-scale DRAM error studies
// [6, 44]). field: 0=pos.X, 1=vel.Y, 2=mass, 3=u.
func InjectBitFlip(ps *part.Set, i int, field int, bit uint) {
	flip := func(x float64) float64 {
		return math.Float64frombits(math.Float64bits(x) ^ (1 << (bit % 64)))
	}
	switch field % 4 {
	case 0:
		ps.Pos[i].X = flip(ps.Pos[i].X)
	case 1:
		ps.Vel[i].Y = flip(ps.Vel[i].Y)
	case 2:
		ps.Mass[i] = flip(ps.Mass[i])
	case 3:
		ps.U[i] = flip(ps.U[i])
	}
}
