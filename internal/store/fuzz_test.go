package store

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// FuzzOpenIndex: Open over a directory holding two real records and
// arbitrary bytes as index.json. Whatever the index says, Open must not
// panic or fail; the accounting must equal both the entries it kept and the
// live regions as the packs hold them, and the packs hold at most twice
// that plus one pack; every entry it kept must serve a verified object;
// and a second Open must keep the same entries. The checked-in corpus
// (testdata/fuzz/FuzzOpenIndex) holds the index of exactly this directory,
// a truncation of it, a null entry, negative and oversized sizes, an entry
// that lost a slot its record still fills, a key that is no plain name but
// names another entry's record (alone and beside that entry), and legacy
// profile keys.
func FuzzOpenIndex(f *testing.F) {
	// The two records, written by a real store under a fixed clock.
	seedDir := f.TempDir()
	seed, err := Open(seedDir, Options{Now: newClock().now})
	if err != nil {
		f.Fatal(err)
	}
	seed.PutResult(Meta{Hash: "aaaa1111", Particles: 8, Steps: 1}, []byte("SPH1 first snapshot"),
		[]byte(`{"pass":true}`), []byte(`{"status":"ok"}`))
	seed.PutResult(Meta{Hash: "bbbb2222", Particles: 27, Steps: 2}, []byte("SPH1 second snapshot, longer"),
		[]byte(`{"pass":false}`), nil)
	seed.Sweep() // compacted: index.json holds both records and no index.log overrides it
	files := tree(f, seedDir)
	f.Add(files["index.json"])

	f.Fuzz(func(t *testing.T, index []byte) {
		dir := t.TempDir()
		writeTree(t, dir, files)
		if err := os.WriteFile(filepath.Join(dir, "index.json"), index, 0o644); err != nil {
			t.Fatal(err)
		}

		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open failed on a damaged index: %v", err)
		}
		var live []string
		var sum int64
		for hash, m := range s.entries {
			live = append(live, hash)
			sum += m.Size + m.ReportSize + m.TelemetrySize
		}
		sort.Strings(live)
		if st := s.Stats(); st.Bytes != sum || st.Bytes != st.ObjectBytes+st.ReportBytes+st.TelemetryBytes {
			t.Errorf("Stats %+v, but the live entries hold %d bytes", st, sum)
		}
		if live, packed := liveBytes(t, s), packBytes(t, dir); live != sum || packed > 2*sum+packLimit {
			t.Errorf("accounting says %d bytes; the live regions hold %d, the packs %d", sum, live, packed)
		}
		for _, hash := range live {
			if _, _, err := s.ReadObject(hash); err != nil {
				t.Errorf("entry %q kept by Open does not serve its object: %v", hash, err)
			}
		}

		again, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		var relive []string
		for hash := range again.entries {
			relive = append(relive, hash)
		}
		sort.Strings(relive)
		if !reflect.DeepEqual(live, relive) {
			t.Errorf("first Open kept %q, the second %q", live, relive)
		}
	})
}

// journalFuzzDir is FuzzJournalReplay's directory — the two records of
// FuzzOpenIndex, compacted, so index.json is valid and vouches for both —
// and the log those two writes left before the compaction.
func journalFuzzDir(t testing.TB) (files map[string][]byte, log []byte) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Now: newClock().now})
	if err != nil {
		t.Fatal(err)
	}
	s.PutResult(Meta{Hash: "aaaa1111", Particles: 8, Steps: 1}, []byte("SPH1 first snapshot"),
		[]byte(`{"pass":true}`), []byte(`{"status":"ok"}`))
	s.PutResult(Meta{Hash: "bbbb2222", Particles: 27, Steps: 2}, []byte("SPH1 second snapshot, longer"),
		[]byte(`{"pass":false}`), nil)
	log = tree(t, dir)["index.log"]
	s.Sweep()
	return tree(t, dir), log
}

// FuzzJournalReplay: Open over that directory with arbitrary bytes as
// index.log. Whatever the log says, the invariants of FuzzOpenIndex hold
// (checkOpenInvariants). The checked-in corpus
// (testdata/fuzz/FuzzJournalReplay) is cut from the real log: the log
// itself (two puts the index already holds), a torn tail, a bad CRC, a del
// of a live and of an unknown hash, puts under a hash that is an old
// object path or another entry's, a put repeated, and puts that lie about
// their sizes.
func FuzzJournalReplay(f *testing.F) {
	files, log := journalFuzzDir(f)
	f.Add(log)
	f.Fuzz(func(t *testing.T, log []byte) {
		openOver(t, files, log)
	})
}

// FuzzRecordRegions: Open over a directory whose one indexed record is
// damaged one way: how%3 is 0 to truncate it to at bytes, 1 to extend it by
// extra, 2 to flip the bits of extra[0] (or the low bit) in its byte at%len.
// Open must not panic or fail and keeps the invariants of FuzzOpenIndex
// (checkOpenInvariants); a region is served only when it is the bytes that
// were written; and while the snapshot region is intact, it is served, and
// so is every other intact region: a bad report or telemetry region never
// hides a good one. The checked-in corpus (testdata/fuzz/FuzzRecordRegions)
// cuts the record inside and at the end of each region, extends it, and
// flips a byte of each region.
func FuzzRecordRegions(f *testing.F) {
	const hash = "aaaa1111"
	written := [len(regions)][]byte{[]byte("SPH1 the snapshot"), []byte(`{"pass":true}`), []byte(`{"status":"ok"}`)}
	dir := f.TempDir()
	s, err := Open(dir, Options{Now: newClock().now})
	if err != nil {
		f.Fatal(err)
	}
	s.PutResult(Meta{Hash: hash, Particles: 8, Steps: 1}, written[0], written[1], written[2])
	s.Sweep()
	files := tree(f, dir)
	name := "packs/1.pack" // the record is the pack's only one
	record := files[name]

	f.Fuzz(func(t *testing.T, how uint8, at uint16, extra []byte) {
		rec := bytes.Clone(record)
		switch how % 3 {
		case 0:
			rec = rec[:min(int(at), len(rec))]
		case 1:
			rec = append(rec, extra...)
		case 2:
			mask := byte(1)
			if len(extra) > 0 && extra[0] != 0 {
				mask = extra[0]
			}
			rec[int(at)%len(rec)] ^= mask
		}
		damaged := maps.Clone(files)
		damaged[name] = rec
		dir := t.TempDir()
		writeTree(t, dir, damaged)
		s := checkOpenInvariants(t, dir)

		snap, _, err := s.ReadObject(hash)
		got := [len(regions)][]byte{snap}
		got[regionReport], _ = s.ReadReport(hash)
		got[regionTelemetry], _ = s.ReadTelemetry(hash)
		var off int
		for k := range regions {
			intact := len(rec) >= off+len(written[k]) && bytes.Equal(rec[off:off+len(written[k])], written[k])
			off += len(written[k])
			switch {
			case got[k] != nil && !bytes.Equal(got[k], written[k]):
				t.Errorf("region %d serves %q, %q was written", k, got[k], written[k])
			case err == nil && intact && got[k] == nil:
				t.Errorf("region %d is intact but not served beside the snapshot", k)
			case k == regionSnapshot && intact && err != nil:
				t.Errorf("a damaged attachment hid the intact snapshot: %v", err)
			}
		}
	})
}
