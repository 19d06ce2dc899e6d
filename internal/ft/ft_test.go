package ft

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/conserve"
	"repro/internal/part"
	"repro/internal/vec"
)

func testSet(n int, seed int64) *part.Set {
	rng := rand.New(rand.NewSource(seed))
	ps := part.New(n)
	for i := 0; i < n; i++ {
		ps.ID[i] = int64(i)
		ps.Pos[i] = vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		ps.Vel[i] = vec.V3{X: rng.NormFloat64()}
		ps.Mass[i] = 1
		ps.H[i] = 0.1
		ps.U[i] = 1
		ps.Rho[i] = 1
	}
	return ps
}

func TestDalyInterval(t *testing.T) {
	// Small cost: interval ~ sqrt(2 C M).
	got := DalyInterval(10, 86400)
	approx := math.Sqrt(2 * 10 * 86400)
	if got < approx*0.9 || got > approx*1.2 {
		t.Fatalf("Daly interval %g, want near %g", got, approx)
	}
	// Monotone in both arguments.
	if DalyInterval(10, 86400) >= DalyInterval(40, 86400) {
		t.Error("interval not increasing with checkpoint cost")
	}
	if DalyInterval(10, 3600) >= DalyInterval(10, 86400) {
		t.Error("interval not increasing with MTBF")
	}
	// Degenerate inputs.
	if !math.IsInf(DalyInterval(0, 100), 1) {
		t.Error("zero cost should disable checkpointing")
	}
	// Huge cost: fall back to MTBF.
	if got := DalyInterval(1e6, 100); got != 100 {
		t.Errorf("huge-cost interval %g, want MTBF", got)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := &Checkpointer{Dir: t.TempDir()}
	ps := testSet(100, 1)
	if err := c.Write(7, 1.25, ps); err != nil {
		t.Fatal(err)
	}
	got, step, simTime, err := c.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if step != 7 || simTime != 1.25 {
		t.Fatalf("restored step=%d t=%g", step, simTime)
	}
	if got.Checksum() != ps.Checksum() {
		t.Fatal("restored state differs")
	}
}

func TestRestorePrefersNewest(t *testing.T) {
	c := &Checkpointer{Dir: t.TempDir()}
	ps := testSet(50, 2)
	if err := c.Write(10, 1, ps); err != nil {
		t.Fatal(err)
	}
	ps.U[0] = 99
	if err := c.Write(20, 2, ps); err != nil {
		t.Fatal(err)
	}
	got, step, _, err := c.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if step != 20 || got.U[0] != 99 {
		t.Fatalf("restored step %d, U[0]=%g; want newest", step, got.U[0])
	}
}

// TestRestoreSkipsCorrupted: one directory keeps the two newest
// checkpoints, so a flipped byte in the newest restores the older one.
func TestRestoreSkipsCorrupted(t *testing.T) {
	dir := t.TempDir()
	c := &Checkpointer{Dir: dir}
	ps := testSet(50, 3)
	for _, step := range []int{10, 20, 30} {
		if err := c.Write(step, float64(step), ps); err != nil {
			t.Fatal(err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.sph"))
	if len(files) != 2 {
		t.Fatalf("directory keeps %d checkpoints, want 2", len(files))
	}
	newest := filepath.Join(dir, "ckpt-000000030.sph")
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, step, simTime, err := c.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if step != 20 || simTime != 20 || got.Checksum() != ps.Checksum() {
		t.Fatalf("restored step %d t=%g, want the older checkpoint (20)", step, simTime)
	}
}

// TestRestoreSkipsCorruptParticleCount: the newest checkpoint's particle
// count has bit 33 flipped. Restore must return the older checkpoint, and
// must not size a set from the damaged header on the way: a decoder that
// allocates 2^33 particles before it checks the frame dies of it.
func TestRestoreSkipsCorruptParticleCount(t *testing.T) {
	dir := t.TempDir()
	c := &Checkpointer{Dir: dir}
	ps := testSet(8, 4)
	for _, step := range []int{10, 20} {
		if err := c.Write(step, float64(step), ps); err != nil {
			t.Fatal(err)
		}
	}
	newest := filepath.Join(dir, "ckpt-000000020.sph")
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	// After the text header: magic (4 bytes), nlocal (8), then n, whose
	// bit 33 is bit 1 of its fifth byte.
	data[bytes.IndexByte(data, '\n')+1+4+8+4] ^= 1 << 1
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, step, _, err := c.Restore()
	runtime.ReadMemStats(&after)
	if err != nil || step != 10 || got.Checksum() != ps.Checksum() {
		t.Fatalf("restored step %d (err %v), want the older checkpoint (10)", step, err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("restore allocated %d bytes for two 8-particle checkpoints", d)
	}
}

func TestRestoreNoCheckpoints(t *testing.T) {
	c := &Checkpointer{Dir: t.TempDir()}
	if _, _, _, err := c.Restore(); err == nil {
		t.Fatal("restore from nothing succeeded")
	}
}

func TestPruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	c := &Checkpointer{Dir: dir}
	ps := testSet(10, 4)
	for s := 1; s <= 5; s++ {
		if err := c.Write(s, float64(s), ps); err != nil {
			t.Fatal(err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.sph"))
	if len(files) != 2 {
		t.Fatalf("kept %d checkpoints, want 2", len(files))
	}
	_, step, _, err := c.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if step != 5 {
		t.Fatalf("restored %d, want 5", step)
	}
}

func TestStructuralDetector(t *testing.T) {
	ps := testSet(20, 5)
	var d StructuralDetector
	if v := d.Check(ps, conserve.State{}); v.Corrupted {
		t.Fatalf("clean state flagged: %s", v.Detail)
	}
	InjectBitFlip(ps, 3, 2, 62) // mass bit flip: huge or negative
	v := d.Check(ps, conserve.State{})
	if !v.Corrupted && ps.Mass[3] <= 0 {
		t.Fatal("negative mass not flagged")
	}
}

func TestConservationDetector(t *testing.T) {
	ps := testSet(50, 6)
	ref := conserve.Measure(ps, nil)
	d := &ConservationDetector{Ref: ref, Tolerance: 0.05}
	if v := d.Check(ps, conserve.Measure(ps, nil)); v.Corrupted {
		t.Fatalf("unchanged state flagged: %s", v.Detail)
	}
	// Small legitimate evolution passes.
	ps.Vel[0].X *= 1.0001
	if v := d.Check(ps, conserve.Measure(ps, nil)); v.Corrupted {
		t.Fatalf("tiny drift flagged: %s", v.Detail)
	}
	// Mass corruption is flagged whatever the tolerance.
	ps.Mass[0] *= 2
	if v := d.Check(ps, conserve.Measure(ps, nil)); !v.Corrupted {
		t.Fatal("mass corruption passed")
	}
	ps.Mass[0] /= 2
	// NaN energy flagged.
	ps.U[0] = math.NaN()
	if v := d.Check(ps, conserve.Measure(ps, nil)); !v.Corrupted {
		t.Fatal("NaN state passed")
	}
}

func TestReplicaDetector(t *testing.T) {
	var d ReplicaDetector
	if v := d.CompareReplicas([]uint64{42, 42, 42}); v.Corrupted {
		t.Fatal("agreeing replicas flagged")
	}
	v := d.CompareReplicas([]uint64{42, 42, 13})
	if !v.Corrupted {
		t.Fatal("disagreeing replicas passed")
	}
	if v.Detail == "" {
		t.Fatal("no majority detail")
	}
	if v := d.CompareReplicas([]uint64{42}); v.Corrupted {
		t.Fatal("single replica flagged")
	}
}

func TestReplicationDetectsBitFlip(t *testing.T) {
	// End-to-end: duplicate computation, flip one bit in one replica, and
	// catch it via checksums — the paper's selective-replication SDC story.
	a := testSet(100, 7)
	b := a.Clone()
	var d ReplicaDetector
	if v := d.CompareReplicas([]uint64{a.Checksum(), b.Checksum()}); v.Corrupted {
		t.Fatal("identical replicas disagree")
	}
	InjectBitFlip(b, 50, 3, 40)
	if v := d.CompareReplicas([]uint64{a.Checksum(), b.Checksum()}); !v.Corrupted {
		t.Fatal("bit flip escaped replication check")
	}
}

func TestSuiteShortCircuits(t *testing.T) {
	ps := testSet(10, 8)
	ref := conserve.Measure(ps, nil)
	s := Suite{Detectors: []Detector{
		StructuralDetector{},
		&ConservationDetector{Ref: ref, Tolerance: 0.05},
	}}
	if v := s.Check(ps, conserve.Measure(ps, nil)); v.Corrupted {
		t.Fatalf("clean state flagged by suite: %s", v.Detail)
	}
	ps.H[2] = -1
	v := s.Check(ps, conserve.Measure(ps, nil))
	if !v.Corrupted || v.Detector != "structural" {
		t.Fatalf("suite verdict = %+v, want structural corruption", v)
	}
}

func TestInjectBitFlipChangesState(t *testing.T) {
	ps := testSet(10, 9)
	before := ps.Checksum()
	InjectBitFlip(ps, 0, 0, 10)
	if ps.Checksum() == before {
		t.Fatal("bit flip did not change state")
	}
}

func BenchmarkCheckpointWrite10k(b *testing.B) {
	c := &Checkpointer{Dir: b.TempDir()}
	ps := testSet(10000, 10)
	b.SetBytes(int64(ps.EncodedSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Write(i, 0, ps); err != nil {
			b.Fatal(err)
		}
	}
}
