package store

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// FuzzOpenIndex: Open over a directory holding two real records and
// arbitrary bytes as index.json. Whatever the index says, Open must not
// panic or fail; the accounting must equal both the entries it kept and the
// bytes actually on disk; every entry it kept must serve a verified object;
// and a second Open must keep the same entries. The checked-in corpus
// (testdata/fuzz/FuzzOpenIndex) holds the index of exactly this directory,
// a truncation of it, a null entry, negative and oversized sizes, an entry
// that lost a slot its file still fills, a key that aliases another
// entry's object (alone and beside that entry), and legacy profile keys.
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
		if disk := diskBytesAll(t, dir); disk != sum {
			t.Errorf("accounting says %d bytes, the disk holds %d", sum, disk)
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
// of a live and of an unknown hash, puts whose hash aliases another entry's
// object path, a put repeated, and puts that lie about their sizes.
func FuzzJournalReplay(f *testing.F) {
	files, log := journalFuzzDir(f)
	f.Add(log)
	f.Fuzz(func(t *testing.T, log []byte) {
		openOver(t, files, log)
	})
}
