package part

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary bytes to ReadFrom, the one decoder of
// snapshots and checkpoints. It must never panic; a frame it accepts must be
// exactly the frame the decoded set writes back; and what it allocates must
// be bounded by the bytes it was given, so a damaged header cannot size the
// set (a checkpoint claiming 2^33 particles once killed the process before
// its checksum was read). The checked-in seed corpus under
// testdata/fuzz/FuzzDecodeRecord holds valid frames of 0, 1 and 8 particles,
// and the 8-particle one with bit 20 of its count flipped.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		var before, after runtime.MemStats
		s := New(0)
		runtime.ReadMemStats(&before)
		_, err := s.ReadFrom(bytes.NewReader(frame))
		runtime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(16*len(frame)+64<<10); alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d, more than %d", len(frame), alloc, bound)
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if _, err := s.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), frame) {
			t.Fatalf("accepted %d bytes re-encode to %d other bytes", len(frame), again.Len())
		}
	})
}
