package part

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func randomSet(n int, rng *rand.Rand) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		s.ID[i] = int64(i)
		s.Pos[i] = vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		s.Vel[i] = vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		s.Acc[i] = vec.V3{X: rng.NormFloat64()}
		s.Mass[i] = 0.5 + rng.Float64()
		s.H[i] = 0.01 + rng.Float64()
		s.Rho[i] = 1 + rng.Float64()
		s.U[i] = rng.Float64()
		s.DU[i] = rng.NormFloat64()
		s.P[i] = rng.Float64()
		s.C[i] = rng.Float64()
		s.VE[i] = rng.Float64()
		s.NN[i] = int32(rng.Intn(200))
		s.Tau[i] = vec.Sym33{}.AddScaledOuter(1, vec.V3{X: rng.Float64(), Y: 1, Z: 2})
	}
	return s
}

func TestNewZeroed(t *testing.T) {
	s := New(5)
	if s.Len() != 5 || s.NLocal != 5 || s.NGhost() != 0 {
		t.Fatalf("Len=%d NLocal=%d NGhost=%d", s.Len(), s.NLocal, s.NGhost())
	}
	for i := 0; i < 5; i++ {
		if s.Pos[i] != (vec.V3{}) || s.Mass[i] != 0 {
			t.Fatalf("entry %d not zeroed", i)
		}
	}
}

func TestGhosts(t *testing.T) {
	s := randomSet(10, rand.New(rand.NewSource(1)))
	base := s.GrowGhosts(4)
	if base != 10 || s.Len() != 14 || s.NGhost() != 4 {
		t.Fatalf("base=%d Len=%d NGhost=%d", base, s.Len(), s.NGhost())
	}
	s.Pos[12] = vec.V3{X: 42}
	s.DropGhosts()
	if s.Len() != 10 || s.NGhost() != 0 {
		t.Fatalf("after drop: Len=%d NGhost=%d", s.Len(), s.NGhost())
	}
	// Growing again must not resurrect stale data visibly harmful to logic;
	// re-grown slots are reused but callers always overwrite them. Verify
	// capacity reuse at least does not panic and length is right.
	s.GrowGhosts(2)
	if s.Len() != 12 {
		t.Fatalf("regrow: Len=%d", s.Len())
	}
}

func TestSelectAppend(t *testing.T) {
	s := randomSet(6, rand.New(rand.NewSource(3)))
	sel := s.Select([]int{4, 1})
	if sel.Len() != 2 || sel.NLocal != 2 {
		t.Fatalf("sel.Len=%d", sel.Len())
	}
	if sel.ID[0] != s.ID[4] || sel.ID[1] != s.ID[1] {
		t.Fatal("Select copied wrong particles")
	}
	dst := randomSet(2, rand.New(rand.NewSource(4)))
	dst.AppendOwned(sel)
	if dst.Len() != 4 || dst.NLocal != 4 {
		t.Fatalf("append: Len=%d NLocal=%d", dst.Len(), dst.NLocal)
	}
	if dst.ID[2] != s.ID[4] {
		t.Fatal("AppendOwned misplaced data")
	}
}

func TestSelectPanicsOnGhost(t *testing.T) {
	s := randomSet(3, rand.New(rand.NewSource(5)))
	s.GrowGhosts(1)
	defer func() {
		if recover() == nil {
			t.Error("Select of ghost index did not panic")
		}
	}()
	s.Select([]int{3})
}

func TestClone(t *testing.T) {
	s := randomSet(7, rand.New(rand.NewSource(6)))
	c := s.Clone()
	if c.Len() != s.Len() || c.NLocal != s.NLocal {
		t.Fatal("clone size mismatch")
	}
	c.Pos[0].X = 999
	if s.Pos[0].X == 999 {
		t.Fatal("clone aliases original")
	}
}

func TestBounds(t *testing.T) {
	s := New(3)
	s.Pos[0] = vec.V3{X: -1, Y: 2, Z: 0}
	s.Pos[1] = vec.V3{X: 5, Y: -3, Z: 1}
	s.Pos[2] = vec.V3{X: 0, Y: 0, Z: 9}
	lo, hi := s.Bounds()
	if lo != (vec.V3{X: -1, Y: -3, Z: 0}) || hi != (vec.V3{X: 5, Y: 2, Z: 9}) {
		t.Fatalf("Bounds = %v %v", lo, hi)
	}
	empty := New(0)
	lo, hi = empty.Bounds()
	if lo != (vec.V3{}) || hi != (vec.V3{}) {
		t.Fatal("empty Bounds not zero")
	}
}

func TestTotalMass(t *testing.T) {
	s := New(4)
	for i := range s.Mass {
		s.Mass[i] = 0.25
	}
	if got := s.TotalMass(); math.Abs(got-1) > 1e-15 {
		t.Fatalf("TotalMass = %g", got)
	}
}

func TestValidate(t *testing.T) {
	s := randomSet(5, rand.New(rand.NewSource(7)))
	if err := s.Validate(); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	s.Mass[2] = 0
	if err := s.Validate(); err == nil {
		t.Error("zero mass accepted")
	}
	s.Mass[2] = 1
	s.H[3] = -1
	if err := s.Validate(); err == nil {
		t.Error("negative h accepted")
	}
	s.H[3] = 1
	s.Pos[1].Y = math.NaN()
	if err := s.Validate(); err == nil {
		t.Error("NaN position accepted")
	}
	s.Pos[1].Y = 0
	s.Vel[0].Z = math.Inf(1)
	if err := s.Validate(); err == nil {
		t.Error("Inf velocity accepted")
	}
	s.Vel[0].Z = 0
	s.NLocal = 99
	if err := s.Validate(); err == nil {
		t.Error("NLocal > Len accepted")
	}
	s.NLocal = 5
	s.Rho = s.Rho[:3]
	if err := s.Validate(); err == nil {
		t.Error("ragged fields accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 17, 256} {
		s := randomSet(n, rng)
		if n > 2 {
			s.NLocal = n - 2 // include ghosts in the round trip
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatalf("n=%d WriteTo: %v", n, err)
		}
		if buf.Len() != s.EncodedSize() || buf.Len() != 28+88*n {
			t.Errorf("n=%d EncodedSize=%d, wrote %d, want 28 + 88 n", n, s.EncodedSize(), buf.Len())
		}
		r := New(0)
		if _, err := r.ReadFrom(&buf); err != nil {
			t.Fatalf("n=%d ReadFrom: %v", n, err)
		}
		if r.Len() != s.Len() || r.NLocal != s.NLocal {
			t.Fatalf("n=%d size mismatch after round trip", n)
		}
		for i := 0; i < n; i++ {
			if r.ID[i] != s.ID[i] || r.Pos[i] != s.Pos[i] || r.Vel[i] != s.Vel[i] || r.Mass[i] != s.Mass[i] ||
				r.H[i] != s.H[i] || r.Rho[i] != s.Rho[i] || r.U[i] != s.U[i] {
				t.Fatalf("n=%d particle %d differs after round trip", n, i)
			}
			if r.Acc[i] != (vec.V3{}) || r.DU[i] != 0 || r.NN[i] != 0 || r.Tau[i] != (vec.Sym33{}) {
				t.Fatalf("n=%d particle %d: a column outside the record was restored", n, i)
			}
		}
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	s := randomSet(32, rand.New(rand.NewSource(9)))
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one payload byte.
	data[100] ^= 0xFF
	r := New(0)
	if _, err := r.ReadFrom(bytes.NewReader(data)); err == nil {
		t.Error("corrupted checkpoint accepted")
	}
}

func TestDecodeDetectsTruncation(t *testing.T) {
	s := randomSet(32, rand.New(rand.NewSource(10)))
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()/2]
	r := New(0)
	if _, err := r.ReadFrom(bytes.NewReader(data)); err == nil {
		t.Error("truncated checkpoint accepted")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	r := New(0)
	if _, err := r.ReadFrom(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Error("garbage accepted")
	}
	// A frame with the magic of the older 15-column format: rejected, the
	// magic named.
	var buf bytes.Buffer
	if _, err := randomSet(4, rand.New(rand.NewSource(2))).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	old := buf.Bytes()
	old[0] = '1'
	if _, err := r.ReadFrom(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), `"SPH1"`) {
		t.Errorf("SPH1 frame: error %v, want one naming the magic", err)
	}
}

func TestChecksumDetectsFieldChange(t *testing.T) {
	s := randomSet(16, rand.New(rand.NewSource(11)))
	c1 := s.Checksum()
	if c2 := s.Checksum(); c2 != c1 {
		t.Fatal("checksum not deterministic")
	}
	s.U[7] += 1e-9
	if s.Checksum() == c1 {
		t.Error("checksum blind to energy change")
	}
}

// TestFrameChecksumIsChecksum: the checksum read from an encoded frame is
// the set's Checksum, ghosts included.
func TestFrameChecksumIsChecksum(t *testing.T) {
	s := randomSet(16, rand.New(rand.NewSource(5)))
	base := s.GrowGhosts(3)
	for i := base; i < s.Len(); i++ {
		s.CopyFrom(i, s, i-base)
		s.Pos[i].X += 1
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := FrameChecksum(buf.Bytes()), s.Checksum(); got != want {
		t.Errorf("FrameChecksum = %#x, Checksum = %#x", got, want)
	}
	s.Pos[base].X += 1 // a ghost is part of the payload
	if s.Checksum() == FrameChecksum(buf.Bytes()) {
		t.Error("Checksum is blind to a ghost")
	}
}

// Property: encode/decode is the identity on random small sets.
func TestEncodePropertyRoundTrip(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%40) + 1
		s := randomSet(n, rand.New(rand.NewSource(seed)))
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			return false
		}
		r := New(0)
		if _, err := r.ReadFrom(&buf); err != nil {
			return false
		}
		return r.Checksum() == s.Checksum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestChecksumBufferFitsThePayload: Checksum and WriteTo stream the record
// through a fixed 4 KiB chunk, so neither a served 216-particle record
// (19,024 payload bytes) nor a 10,000-particle one allocates a payload-sized
// buffer. TotalAlloc counts every goroutine's allocations, and other
// goroutines only add bytes, so the figure is the least per-call mean over
// several rounds.
func TestChecksumBufferFitsThePayload(t *testing.T) {
	const most = 4<<10 + 512
	for _, n := range []int{216, 10000} {
		s := randomSet(n, rand.New(rand.NewSource(13)))
		for name, encode := range map[string]func(){
			"Checksum": func() { s.Checksum() },
			"WriteTo":  func() { _, _ = s.WriteTo(io.Discard) },
		} {
			encode()
			got := math.MaxInt
			for range 5 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				const runs = 10
				for range runs {
					encode()
				}
				runtime.ReadMemStats(&after)
				got = min(got, int(after.TotalAlloc-before.TotalAlloc)/runs)
			}
			if got > most {
				t.Errorf("%s of %d particles allocates %d bytes, want at most %d", name, n, got, most)
			}
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	s := randomSet(10000, rand.New(rand.NewSource(12)))
	b.SetBytes(int64(s.EncodedSize()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		buf.Grow(s.EncodedSize())
		if _, err := s.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendFrameIsWriteTo: AppendFrame appends exactly WriteTo's frame,
// and into a buffer with EncodedSize bytes to spare it allocates nothing.
func TestAppendFrameIsWriteTo(t *testing.T) {
	s := randomSet(300, rand.New(rand.NewSource(5)))
	s.GrowGhosts(7)
	var want bytes.Buffer
	if _, err := s.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	buf := append(make([]byte, 0, 3+s.EncodedSize()), "abc"...)
	got := s.AppendFrame(buf)
	if !bytes.Equal(got[3:], want.Bytes()) || string(got[:3]) != "abc" {
		t.Fatalf("AppendFrame differs from WriteTo (%d vs %d bytes)", len(got)-3, want.Len())
	}
	if &got[0] != &buf[0] {
		t.Error("AppendFrame grew a buffer with EncodedSize bytes to spare")
	}
	if allocs := testing.AllocsPerRun(5, func() { s.AppendFrame(buf[:3]) }); allocs > 1 {
		t.Errorf("AppendFrame into a sized buffer allocates %.0f times", allocs)
	}
}

// TestResetZeroesAndKeepsCapacity: Reset leaves n owned particles with every
// field zero, whatever the set held, in the columns it already had.
func TestResetZeroesAndKeepsCapacity(t *testing.T) {
	s := randomSet(50, rand.New(rand.NewSource(6)))
	s.GrowGhosts(10)
	pos := &s.Pos[0]
	if got := s.Reset(40); got != s || s.NLocal != 40 || s.Len() != 40 || &s.Pos[0] != pos {
		t.Fatalf("Reset(40): NLocal %d, Len %d, same set %v, same columns %v", s.NLocal, s.Len(), got == s, &s.Pos[0] == pos)
	}
	if columnsZero := reflect.DeepEqual(s, New(40)); !columnsZero {
		t.Error("Reset left a non-zero field")
	}
	if got := (*Set)(nil).Reset(3); got == nil || got.Len() != 3 {
		t.Error("a nil set's Reset is not New")
	}
}
