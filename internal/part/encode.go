package part

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"

	"repro/internal/vec"
)

// A stored particle record (snapshot, checkpoint, Checksum) holds the state
// and nothing else: ID, Pos, Vel, Mass, H, Rho and U. Once the leapfrog is
// synchronized, the next steps read only these. ID names the particle; Pos,
// Vel, Mass and U are what the equations evolve; H seeds the smoothing-length
// iteration and Rho the generalized volume X = m/ρ. Every other column (Acc,
// DU, P, C, VE, NN, Tau) is recomputed by a step before anything reads it.
//
// Frame layout (little-endian), 88 bytes a particle:
//
//	magic   uint32  0x53504832, "SPH2" (so the file starts "2HPS")
//	nlocal  uint64
//	n       uint64  (total, including ghosts)
//	columns n values each, in the order record lists them
//	crc     uint64  CRC-64/ECMA over everything after the magic
//
// A frame's length follows from its n, so the decoder checks the length and
// the checksum before it sizes anything from the header: a damaged frame is
// an error, never a huge allocation, and internal/ft then restores the older
// checkpoint it keeps beside the newest.

const encodeMagic = 0x53504832 // "SPH2"

// frameOverhead is the magic, the two counts and the checksum.
const frameOverhead = 4 + 8 + 8 + 8

var crcTable = crc64.MakeTable(crc64.ECMA)

// record returns the stored columns in their one order: ID, then the vec.V3
// columns, then the float64 columns. Encoder, decoder and EncodedSize all
// read it.
func (s *Set) record() ([]int64, [][]vec.V3, [][]float64) {
	return s.ID, [][]vec.V3{s.Pos, s.Vel}, [][]float64{s.Mass, s.H, s.Rho, s.U}
}

// particleBytes is one particle's share of a frame.
func (s *Set) particleBytes() int {
	_, vs, fs := s.record()
	return 8 + 24*len(vs) + 8*len(fs)
}

// payload hands put every 8-byte word between the magic and the trailing
// checksum, in order: the header counts, then the record's columns.
func (s *Set) payload(put func(uint64)) {
	put(uint64(s.NLocal))
	put(uint64(s.Len()))
	ids, vs, fs := s.record()
	for _, id := range ids {
		put(uint64(id))
	}
	for _, col := range vs {
		for _, v := range col {
			put(math.Float64bits(v.X))
			put(math.Float64bits(v.Y))
			put(math.Float64bits(v.Z))
		}
	}
	for _, col := range fs {
		for _, x := range col {
			put(math.Float64bits(x))
		}
	}
}

// WriteTo writes the set's record (ghosts included) to w as one frame and
// returns the number of bytes written.
func (s *Set) WriteTo(w io.Writer) (int64, error) {
	var word [8]byte
	binary.LittleEndian.PutUint32(word[:4], encodeMagic)
	if _, err := w.Write(word[:4]); err != nil {
		return 0, err
	}
	crc, err := s.stream(w)
	if err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint64(word[:], crc)
	if _, err := w.Write(word[:]); err != nil {
		return 0, err
	}
	return int64(s.EncodedSize()), nil
}

// stream writes the payload to w (nil: nowhere) through a 4 KiB chunk and
// returns its CRC-64.
func (s *Set) stream(w io.Writer) (uint64, error) {
	var crc uint64
	var err error
	chunk := make([]byte, 0, 4<<10)
	flush := func() {
		crc = crc64.Update(crc, crcTable, chunk)
		if w != nil && err == nil {
			_, err = w.Write(chunk)
		}
		chunk = chunk[:0]
	}
	s.payload(func(x uint64) {
		if chunk = binary.LittleEndian.AppendUint64(chunk, x); len(chunk) == cap(chunk) {
			flush()
		}
	})
	flush()
	return crc, err
}

// AppendFrame appends the WriteTo frame to b: a b with EncodedSize bytes to
// spare is not grown.
func (s *Set) AppendFrame(b []byte) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, encodeMagic)
	start := len(b)
	s.payload(func(x uint64) { b = le.AppendUint64(b, x) })
	return le.AppendUint64(b, crc64.Checksum(b[start:], crcTable))
}

// FrameChecksum returns the payload checksum a WriteTo frame carries in its
// last 8 bytes: the Checksum of the set that wrote it, without encoding the
// set a second time. It does not verify the frame; a frame too short to hold
// a checksum gives 0.
func FrameChecksum(frame []byte) uint64 {
	if len(frame) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(frame[len(frame)-8:])
}

// EncodedSize returns the exact byte size WriteTo will produce.
func (s *Set) EncodedSize() int {
	return frameOverhead + s.Len()*s.particleBytes()
}

// ReadFrom reads r to its end as one WriteTo frame and replaces the
// receiver's contents with it. A frame of any other magic, length or
// checksum is an error and leaves the receiver as it was; nothing is
// allocated beyond what the bytes read can fill.
func (s *Set) ReadFrom(r io.Reader) (int64, error) {
	frame, err := io.ReadAll(r)
	size := int64(len(frame))
	if err != nil {
		return size, fmt.Errorf("part: reading frame: %w", err)
	}
	le := binary.LittleEndian
	if len(frame) < frameOverhead {
		return size, fmt.Errorf("part: a %d-byte frame is shorter than its header and checksum", len(frame))
	}
	if m := le.Uint32(frame); m != encodeMagic {
		return size, fmt.Errorf("part: frame magic %q, want %q", binary.BigEndian.AppendUint32(nil, m), "SPH2")
	}
	nlocal, n, per := le.Uint64(frame[4:]), le.Uint64(frame[12:]), uint64(s.particleBytes())
	if nlocal > n || n > uint64(len(frame))/per || uint64(len(frame)) != frameOverhead+per*n {
		return size, fmt.Errorf("part: a %d-byte frame cannot hold nlocal=%d of n=%d particles", len(frame), nlocal, n)
	}
	payload, stored := frame[4:len(frame)-8], le.Uint64(frame[len(frame)-8:])
	if sum := crc64.Checksum(payload, crcTable); sum != stored {
		return size, fmt.Errorf("part: frame checksum mismatch: stored %#x computed %#x", stored, sum)
	}
	s.resizeAll(int(n))
	s.NLocal = int(nlocal)
	p := payload[16:]
	next := func() uint64 {
		w := le.Uint64(p)
		p = p[8:]
		return w
	}
	f64 := func() float64 { return math.Float64frombits(next()) }
	ids, vs, fs := s.record()
	for i := range ids {
		ids[i] = int64(next())
	}
	for _, col := range vs {
		for i := range col {
			col[i] = vec.V3{X: f64(), Y: f64(), Z: f64()}
		}
	}
	for _, col := range fs {
		for i := range col {
			col[i] = f64()
		}
	}
	return size, nil
}

// Checksum returns the CRC-64 of the set's serialized payload, a cheap
// fingerprint used by replication-based silent-error detection: two replicas
// with diverging checksums indicate a corrupted computation. It covers the
// stored record only, so it equals FrameChecksum of the set's frame. The
// trailing frame checksum is deliberately excluded — hashing a stream that
// embeds its own CRC yields a payload-independent residue.
func (s *Set) Checksum() uint64 {
	crc, _ := s.stream(nil) // writing nowhere never fails
	return crc
}
