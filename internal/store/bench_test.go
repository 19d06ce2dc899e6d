package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkPutResult: one PutResult of a record the size serve-cold stores
// (the N=216 snapshot, its report and its track: 45 011 bytes) into a store
// that already holds 64 or 4096 results. What a write costs must not depend
// on how many results came before it: the two sub-benchmarks read within
// 1.5× of each other, where a store that rewrites its index per write
// differs by the index size. ns/op is an append to the active pack — one
// pwrite a region, and a pack's creation once per packLimit bytes — on
// whatever disk the temp directory is on; index-B/op — the bytes index.log
// grew by plus every index.json a write left — is exact.
func BenchmarkPutResult(b *testing.B) {
	snapshot := bytes.Repeat([]byte{'s'}, 42580)
	report := bytes.Repeat([]byte{'r'}, 1644)
	track := bytes.Repeat([]byte{'t'}, 787)
	for _, entries := range []int{64, 4096} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			// The standing results are written as a pack and an index, not
			// by PutResult, so the set-up costs the same on both sides of a
			// comparison; their records are tiny, only their number matters.
			idx := indexFile{Version: 1, Entries: map[string]*Meta{}}
			var pack []byte
			for i := 0; i < entries; i++ {
				hash := fmt.Sprintf("%02x%062x", i%256, i)
				obj := []byte("SPH1 " + hash)
				idx.Entries[hash] = &Meta{Hash: hash, Particles: 216, Steps: 2, Size: int64(len(obj)),
					CRC: crc64.Checksum(obj, crcTable), CreatedAt: 1_000_000, LastUsed: 1_000_000,
					Pack: 1, Off: int64(len(pack))}
				pack = append(pack, obj...)
			}
			files := map[string][]byte{"packs/1.pack": pack}
			var err error
			if files["index.json"], err = json.Marshal(idx); err != nil {
				b.Fatal(err)
			}
			dir := b.TempDir()
			writeTree(b, dir, files)
			s, err := Open(dir, Options{})
			if err != nil || s.Stats().Entries != entries {
				b.Fatalf("Open: %v, %d entries, want %d", err, s.Stats().Entries, entries)
			}
			// A write that rewrites index.json also grows it (one more
			// entry), so a changed size is a rewrite of that many bytes.
			size := func(name string) int64 {
				if fi, err := os.Stat(filepath.Join(dir, name)); err == nil {
					return fi.Size()
				}
				return 0
			}
			var indexBytes int64
			jsonSize, logSize := size("index.json"), size("index.log")
			b.SetBytes(int64(len(snapshot) + len(report) + len(track)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				meta := Meta{Hash: fmt.Sprintf("ff%062x", i), Particles: 216, Steps: 2}
				if errs := s.PutResult(meta, snapshot, report, track); !kept(s, meta.Hash, errs) {
					b.Fatalf("PutResult: errs=%v, live=false", errs)
				}
				if n := size("index.json"); n != jsonSize {
					indexBytes, jsonSize = indexBytes+n, n
				}
				if n := size("index.log"); n != logSize {
					indexBytes, logSize = indexBytes+max(n-logSize, 0), n
				}
			}
			b.ReportMetric(float64(indexBytes)/float64(b.N), "index-B/op")
		})
	}
}

// BenchmarkReadObject: one ReadObject of a snapshot the size serve-warm
// serves (42 580 bytes). read-B/op — the bytes the process read from files
// per call, rchar of /proc/self/io — is exact: the object's size for a read
// that verifies the bytes it returns in the same pass, twice that for one
// that checksums the file and then reads it again. ns/op is the page cache.
func BenchmarkReadObject(b *testing.B) {
	if _, err := os.Stat("/proc/self/io"); err != nil {
		b.Skip("no /proc/self/io to count read bytes with")
	}
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	snapshot := bytes.Repeat([]byte{'s'}, 42580)
	hash := fmt.Sprintf("ab%062x", 1)
	if err := s.Put(Meta{Hash: hash, Particles: 216, Steps: 2}, snapshot); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snapshot)))
	_, start := rchar(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, _, err := s.ReadObject(hash); err != nil || len(got) != len(snapshot) {
			b.Fatalf("ReadObject: %d bytes, %v", len(got), err)
		}
	}
	b.StopTimer()
	end, _ := rchar(b)
	b.ReportMetric(float64(end-start)/float64(b.N), "read-B/op")
}

// rchar returns the bytes this process had read through read(2) before this
// call's own read of /proc/self/io, and after it.
func rchar(b *testing.B) (before, after int64) {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := fmt.Sscanf(string(raw), "rchar: %d", &before); err != nil {
		b.Fatalf("parsing /proc/self/io: %v", err)
	}
	return before, before + int64(len(raw))
}
