package part

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"

	"repro/internal/vec"
)

// Binary checkpoint format (little-endian):
//
//	magic   uint32  'S','P','H','1'
//	nlocal  uint64
//	n       uint64  (total, including ghosts)
//	fields  ... fixed order, full-length arrays
//	crc     uint64  CRC-64/ECMA over everything after the magic
//
// The trailing checksum lets restart distinguish a truncated or corrupted
// checkpoint from a valid one: internal/ft then restores the older
// checkpoint it keeps beside the newest.

const encodeMagic = 0x53504831 // "SPH1"

var crcTable = crc64.MakeTable(crc64.ECMA)

type crcWriter struct {
	w   io.Writer
	crc uint64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc64.Update(c.crc, crcTable, p)
	return c.w.Write(p)
}

type crcReader struct {
	r   io.Reader
	crc uint64
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc64.Update(c.crc, crcTable, p[:n])
	return n, err
}

func writeF64s(w io.Writer, buf []byte, xs []float64) error {
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(x))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func readF64s(r io.Reader, buf []byte, xs []float64) error {
	for i := range xs {
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
	}
	return nil
}

func writeV3s(w io.Writer, buf []byte, vs []vec.V3) error {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(v.X))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(v.Y))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(v.Z))
		if _, err := w.Write(buf[:24]); err != nil {
			return err
		}
	}
	return nil
}

func readV3s(r io.Reader, buf []byte, vs []vec.V3) error {
	for i := range vs {
		if _, err := io.ReadFull(r, buf[:24]); err != nil {
			return err
		}
		vs[i] = vec.V3{
			X: math.Float64frombits(binary.LittleEndian.Uint64(buf[0:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])),
			Z: math.Float64frombits(binary.LittleEndian.Uint64(buf[16:])),
		}
	}
	return nil
}

// writePayload writes the header counts and all field arrays (everything
// between the magic and the trailing checksum) to w.
func (s *Set) writePayload(w io.Writer) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(s.NLocal))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(hdr[:], uint64(s.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 48)
	for _, id := range s.ID {
		binary.LittleEndian.PutUint64(buf, uint64(id))
		if _, err := w.Write(buf[:8]); err != nil {
			return err
		}
	}
	if err := writeV3s(w, buf, s.Pos); err != nil {
		return err
	}
	if err := writeV3s(w, buf, s.Vel); err != nil {
		return err
	}
	if err := writeV3s(w, buf, s.Acc); err != nil {
		return err
	}
	for _, f := range [][]float64{s.Mass, s.H, s.Rho, s.U, s.DU, s.P, s.C, s.VE} {
		if err := writeF64s(w, buf[:8], f); err != nil {
			return err
		}
	}
	for _, nn := range s.NN {
		binary.LittleEndian.PutUint32(buf, uint32(nn))
		if _, err := w.Write(buf[:4]); err != nil {
			return err
		}
	}
	for _, b := range s.Bin {
		buf[0] = byte(b)
		if _, err := w.Write(buf[:1]); err != nil {
			return err
		}
	}
	for _, m := range s.Tau {
		if err := writeF64s(w, buf[:8], []float64{m.XX, m.XY, m.XZ, m.YY, m.YZ, m.ZZ}); err != nil {
			return err
		}
	}
	return nil
}

// WriteTo serializes the full particle set (including ghosts) to w.
// It returns the number of payload bytes written.
func (s *Set) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], encodeMagic)
	if _, err := bw.Write(hdr[:4]); err != nil {
		return 0, err
	}
	cw := &crcWriter{w: bw}
	if err := s.writePayload(cw); err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint64(hdr[:], cw.crc)
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return int64(s.EncodedSize()), nil
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
	n := s.Len()
	return 4 + 8 + 8 + // magic + nlocal + n
		n*8 + // ID
		3*n*24 + // Pos, Vel, Acc
		8*n*8 + // 8 float64 fields
		n*4 + n*1 + // NN, Bin
		n*48 + // Tau
		8 // crc
}

// ReadFrom deserializes a particle set previously written by WriteTo,
// replacing the receiver's contents. A checksum or framing failure leaves
// the receiver unspecified and returns an error.
func (s *Set) ReadFrom(r io.Reader) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:4]); err != nil {
		return 0, fmt.Errorf("part: reading magic: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[:4]) != encodeMagic {
		return 0, fmt.Errorf("part: bad checkpoint magic %#x", binary.LittleEndian.Uint32(hdr[:4]))
	}
	cr := &crcReader{r: br}
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return 0, err
	}
	nlocal := int(binary.LittleEndian.Uint64(hdr[:]))
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return 0, err
	}
	n := int(binary.LittleEndian.Uint64(hdr[:]))
	if n < 0 || nlocal < 0 || nlocal > n || n > 1<<34 {
		return 0, fmt.Errorf("part: implausible checkpoint sizes nlocal=%d n=%d", nlocal, n)
	}
	s.resizeAll(n)
	s.NLocal = nlocal
	buf := make([]byte, 48)
	for i := range s.ID {
		if _, err := io.ReadFull(cr, buf[:8]); err != nil {
			return 0, err
		}
		s.ID[i] = int64(binary.LittleEndian.Uint64(buf))
	}
	if err := readV3s(cr, buf, s.Pos); err != nil {
		return 0, err
	}
	if err := readV3s(cr, buf, s.Vel); err != nil {
		return 0, err
	}
	if err := readV3s(cr, buf, s.Acc); err != nil {
		return 0, err
	}
	for _, f := range [][]float64{s.Mass, s.H, s.Rho, s.U, s.DU, s.P, s.C, s.VE} {
		if err := readF64s(cr, buf[:8], f); err != nil {
			return 0, err
		}
	}
	for i := range s.NN {
		if _, err := io.ReadFull(cr, buf[:4]); err != nil {
			return 0, err
		}
		s.NN[i] = int32(binary.LittleEndian.Uint32(buf))
	}
	for i := range s.Bin {
		if _, err := io.ReadFull(cr, buf[:1]); err != nil {
			return 0, err
		}
		s.Bin[i] = int8(buf[0])
	}
	six := make([]float64, 6)
	for i := range s.Tau {
		if err := readF64s(cr, buf[:8], six); err != nil {
			return 0, err
		}
		s.Tau[i] = vec.Sym33{XX: six[0], XY: six[1], XZ: six[2], YY: six[3], YZ: six[4], ZZ: six[5]}
	}
	want := cr.crc
	if _, err := io.ReadFull(br, buf[:8]); err != nil {
		return 0, fmt.Errorf("part: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint64(buf); got != want {
		return 0, fmt.Errorf("part: checkpoint checksum mismatch: stored %#x computed %#x", got, want)
	}
	return int64(s.EncodedSize()), nil
}

// Checksum returns the CRC-64 of the set's serialized payload, a cheap
// fingerprint used by replication-based silent-error detection: two replicas
// with diverging checksums indicate a corrupted computation. The trailing
// frame checksum is deliberately excluded — hashing a stream that embeds its
// own CRC yields a payload-independent residue.
func (s *Set) Checksum() uint64 {
	cw := &crcWriter{w: io.Discard}
	_ = s.writePayload(cw)
	return cw.crc
}
