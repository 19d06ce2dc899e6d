package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// journaled is a data directory as a process killed after n PutResults
// leaves it: an index.json that knows none of them, an index.log with one
// record each, and every file. It returns the tree and the hashes in write
// order.
func journaled(t testing.TB, n int) (files map[string][]byte, hashes []string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, Options{Now: newClock().now})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		hash := fmt.Sprintf("%c%c%c%c%04d", 'a'+i, 'a'+i, 'a'+i, 'a'+i, i)
		errs := s.PutResult(Meta{Hash: hash, Particles: 8 + i, Steps: 1},
			[]byte("SPH1 snapshot of "+hash), []byte(`{"pass":true,"of":"`+hash+`"}`), []byte(`{"status":"ok"}`))
		if !kept(s, hash, errs) {
			t.Fatalf("PutResult %s: errs=%v, live=false", hash, errs)
		}
		hashes = append(hashes, hash)
	}
	files = tree(t, dir)
	if bytes.Count(files["index.log"], []byte("\n")) != n {
		t.Fatalf("%d PutResults left this log, want one record each:\n%s", n, files["index.log"])
	}
	return files, hashes
}

// liveHashes is the store's entries, sorted.
func liveHashes(s *Store) []string {
	live := []string{}
	for hash := range s.entries {
		live = append(live, hash)
	}
	sort.Strings(live)
	return live
}

// checkOpenInvariants opens dir twice and checks what Open promises over any
// index.json and index.log: it does not fail; the accounting equals the
// entries it kept and the live regions as the packs hold them, and the packs
// hold at most twice that plus one pack; every kept entry serves a verified
// object; the second Open keeps the same entries and finds nothing more to
// quarantine. It returns the first store.
func checkOpenInvariants(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open failed: %v", err)
	}
	var sum int64
	for _, m := range s.entries {
		sum += m.Size + m.ReportSize + m.TelemetrySize
	}
	if st := s.Stats(); st.Bytes != sum || st.Bytes != st.ObjectBytes+st.ReportBytes+st.TelemetryBytes {
		t.Errorf("Stats %+v, but the live entries hold %d bytes", st, sum)
	}
	if live, packed := liveBytes(t, s), packBytes(t, dir); live != sum || packed > 2*sum+packLimit {
		t.Errorf("accounting says %d bytes; the live regions hold %d, the packs %d", sum, live, packed)
	}
	live := liveHashes(s)
	for _, hash := range live {
		if _, _, err := s.ReadObject(hash); err != nil {
			t.Errorf("entry %q kept by Open does not serve its object: %v", hash, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "index.log")); !os.IsNotExist(err) {
		t.Errorf("Open left a log behind (stat: %v)", err)
	}
	again, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("second Open: %v", err)
	}
	if relive := liveHashes(again); !reflect.DeepEqual(live, relive) || again.Stats().Quarantined != 0 {
		t.Errorf("first Open kept %q, the second %q (and quarantined %d)", live, relive, again.Stats().Quarantined)
	}
	return s
}

// openOver writes files under a fresh directory with log as its index.log
// and checks the Open invariants there.
func openOver(t *testing.T, files map[string][]byte, log []byte) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	writeTree(t, dir, files)
	if err := os.WriteFile(filepath.Join(dir, "index.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}
	return checkOpenInvariants(t, dir), dir
}

// wantPrefix: the store holds exactly hashes[:k], each served whole, and
// the record of every later hash, which no journal record vouches for, is
// dead bytes: not served, not quarantined.
func wantPrefix(t *testing.T, s *Store, hashes []string, k int) {
	t.Helper()
	if live := liveHashes(s); !reflect.DeepEqual(live, append([]string{}, hashes[:k]...)) {
		t.Errorf("live entries %q, want %q", live, hashes[:k])
	}
	if s.Stats().Quarantined != 0 {
		t.Errorf("quarantined %d, want the unvouched records dead, not quarantined", s.Stats().Quarantined)
	}
	for i, hash := range hashes {
		got, ok := s.ReadReport(hash)
		if i < k && (!ok || string(got) != `{"pass":true,"of":"`+hash+`"}`) {
			t.Errorf("entry %s lost its report: %q ok=%v", hash, got, ok)
		}
		if i >= k && ok {
			t.Errorf("the unvouched %s serves its report", hash)
		}
	}
}

// TestLogTruncatedAtEveryOffset: a log cut anywhere opens to the records
// that are whole, in order — never an error, never a record past the cut.
func TestLogTruncatedAtEveryOffset(t *testing.T) {
	files, hashes := journaled(t, 3)
	log := files["index.log"]
	for off := 0; off <= len(log); off++ {
		s, _ := openOver(t, files, log[:off])
		wantPrefix(t, s, hashes, bytes.Count(log[:off], []byte("\n")))
		if t.Failed() {
			t.Fatalf("log truncated to %d of %d bytes", off, len(log))
		}
	}
}

// TestLogBadFrameEndsReplay: one flipped byte in the middle record drops it
// and the intact record after it, wherever in the frame the byte is.
func TestLogBadFrameEndsReplay(t *testing.T) {
	files, hashes := journaled(t, 3)
	log := files["index.log"]
	first := bytes.IndexByte(log, '\n') + 1
	second := first + bytes.IndexByte(log[first:], '\n') + 1
	for _, at := range []int{first, first + 16, first + 17, (first + second) / 2, second - 2, second - 1} {
		bad := append([]byte{}, log...)
		bad[at] ^= 0x01
		s, _ := openOver(t, files, bad)
		wantPrefix(t, s, hashes, 1)
		if t.Failed() {
			t.Fatalf("byte %d of the log flipped (middle record is [%d,%d))", at, first, second)
		}
	}
}

// TestRecordWithoutJournalRecordIsDead: a process killed between the write
// and the append leaves a record no journal record names. Its bytes are
// dead, not quarantined, and the hash is a miss that can be written again.
func TestRecordWithoutJournalRecordIsDead(t *testing.T) {
	files, hashes := journaled(t, 2)
	log := files["index.log"]
	s, dir := openOver(t, files, log[:bytes.IndexByte(log, '\n')+1])
	wantPrefix(t, s, hashes, 1)
	lost := hashes[1]
	if _, ok := s.Get(lost); ok {
		t.Fatalf("%s is served though its record was never written", lost)
	}
	if errs := s.PutResult(Meta{Hash: lost}, []byte("SPH1 recomputed"), []byte(`{}`), nil); !kept(s, lost, errs) {
		t.Fatalf("recomputed result not stored: errs=%v", errs)
	}
	again, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := again.ReadObject(lost); err != nil || string(got) != "SPH1 recomputed" {
		t.Errorf("recomputed result after reopen: %q, %v", got, err)
	}
}

// TestReplayedPutNeedsItsObject: a put record vouches for a record only
// while its pack is there and the record matches; a del record for a hash
// the index never held is not an error.
func TestReplayedPutNeedsItsObject(t *testing.T) {
	files, hashes := journaled(t, 3)
	missing, corrupt := hashes[0], hashes[1]
	entries := map[string]*Meta{}
	replay(files["index.log"], entries)
	files["packs/1.pack"][entries[corrupt].Off+5] ^= 0xff
	gone := *entries[missing]
	gone.Pack = 7 // a pack that is not there
	log, err := appendFrame(files["index.log"], record{Put: &gone})
	if err == nil {
		log, err = appendFrame(log, record{Del: "feedbeef"})
	}
	if err != nil {
		t.Fatal(err)
	}
	s, dir := openOver(t, files, log)
	if live := liveHashes(s); !reflect.DeepEqual(live, hashes[2:]) {
		t.Errorf("live entries %q, want only %q", live, hashes[2:])
	}
	if s.Stats().Quarantined != 1 {
		t.Errorf("quarantined %d, want the corrupt record alone (a missing one has nothing to copy)", s.Stats().Quarantined)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", corrupt+".sph")); err != nil {
		t.Errorf("the corrupt record is not in quarantine: %v", err)
	}
	for _, hash := range hashes[:2] {
		if _, ok := s.Get(hash); ok {
			t.Errorf("the dropped %s is served", hash)
		}
	}
}

// TestUnsweptStoreReopens: every kind of record, replayed. Puts, an
// overwrite, evictions under a cap and a cleared attachment slot are
// journaled, never compacted, and a second process sees exactly the first
// one's final state.
func TestUnsweptStoreReopens(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: 400})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		hash := fmt.Sprintf("%04d", i)
		s.PutResult(Meta{Hash: hash, Steps: i}, bytes.Repeat([]byte{'s'}, 60), []byte("report "+hash), []byte("track "+hash))
	}
	s.PutResult(Meta{Hash: "0007", Steps: 70}, bytes.Repeat([]byte{'S'}, 61), []byte("report again"), nil)
	path, off := where(t, s, "0006")
	flipByte(t, path, off+s.entries["0006"].Size+3) // a byte of its report
	if _, ok := s.ReadReport("0006"); ok {
		t.Fatal("a report that fails its CRC is served")
	}
	// Where a record lies is the store's to change: Open may compact it.
	want := map[string]Meta{}
	for hash, m := range s.entries {
		w := *m
		w.Pack, w.Off = 0, 0
		want[hash] = w
	}
	if st := s.Stats(); st.Evictions == 0 || len(want) == 0 || want["0007"].Steps != 70 || want["0006"].ReportSize != 0 {
		t.Fatalf("the set-up did not evict, overwrite and clear a slot: %+v %+v", st, want)
	}
	if fi, err := os.Stat(filepath.Join(dir, "index.log")); err != nil || fi.Size() == 0 {
		t.Fatalf("no log to replay: %v", err)
	}

	again := checkOpenInvariants(t, dir)
	got := map[string]Meta{}
	for hash, m := range again.entries {
		g := *m
		g.Pack, g.Off = 0, 0
		got[hash] = g
	}
	if !reflect.DeepEqual(got, want) || again.Stats().Quarantined != 0 {
		t.Errorf("reopened store holds\n%+v\nwant\n%+v\n(quarantined %d)", got, want, again.Stats().Quarantined)
	}
}

// TestLogCompactsItself: overwriting one entry forever does not grow the log
// forever; the rule is records ≤ 2·entries + compactSlack, and a compaction
// loses nothing.
func TestLogCompactsItself(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	most := 0
	for i := 0; i < 2*compactSlack+10; i++ {
		put(t, s, "aaaa", 8+i%3)
		log, err := os.ReadFile(filepath.Join(dir, "index.log"))
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if n := bytes.Count(log, []byte("\n")); n > most {
			most = n
		}
	}
	if most != 2+compactSlack {
		t.Errorf("the log peaked at %d records, want 2·1 + %d", most, compactSlack)
	}
	if again := checkOpenInvariants(t, dir); again.Stats().Entries != 1 {
		t.Errorf("%d entries after the compactions, want 1", again.Stats().Entries)
	}
}

// TestFailedWriteLeavesNoTempFile: a write that fails (here the active pack
// is a symlink to /dev/full, so the open succeeds and the write does not)
// stores nothing and leaves no file behind, and Open removes the temp files
// a killed process left.
func TestFailedWriteLeavesNoTempFile(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail a write with")
	}
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full := s.packPath(s.active)
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", full); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Meta{Hash: "aaaa"}, []byte("SPH1 payload")); err == nil {
		t.Fatal("a write to a full device succeeded")
	}
	if err := os.Remove(full); err != nil {
		t.Fatal(err)
	}
	if names := keys(tree(t, dir)); !reflect.DeepEqual(names, []string{"index.json"}) {
		t.Errorf("the failed write left %q", names)
	}
	if s.Stats().Entries != 0 || s.Stats().Bytes != 0 {
		t.Errorf("the failed write is accounted: %d entries, %d bytes", s.Stats().Entries, s.Stats().Bytes)
	}

	strays := []string{"index.json.tmp", "objects/bb/bbbb.sph.tmp", "objects/cccc.sph.tmp", "reports/bbbb.json.tmp", "telemetry/bbbb.json.tmp"}
	for _, name := range strays {
		writeTree(t, dir, map[string][]byte{name: []byte("half a file")})
	}
	want := put(t, s, "dddd", 16)
	again, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name := range tree(t, dir) {
		if filepath.Ext(name) == ".tmp" {
			t.Errorf("Open left the stray %s", name)
		}
	}
	if got, _, err := again.ReadObject("dddd"); err != nil || !bytes.Equal(got, want) {
		t.Errorf("the sweep of temp files took a live record: %v", err)
	}
}

// TestExpiryOnReadCountsAsEviction: Stats.Evictions counts TTL removals,
// whichever call notices the expiry.
func TestExpiryOnReadCountsAsEviction(t *testing.T) {
	clk := newClock()
	s, err := Open(t.TempDir(), Options{TTL: time.Minute, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "aaaa", 16)
	put(t, s, "bbbb", 16)
	clk.advance(2 * time.Minute)
	if _, ok := s.Get("aaaa"); ok {
		t.Fatal("an expired entry is served")
	}
	if _, _, err := s.ReadObject("bbbb"); err == nil {
		t.Fatal("an expired object is served")
	}
	if st := s.Stats(); st.Evictions != 2 || st.Entries != 0 {
		t.Errorf("stats %+v, want both expiries counted as evictions", st)
	}
}

// TestStaleLogBesideNewIndex: a process killed between compaction's rename
// and its delete leaves the new index.json beside the old log. A log that
// holds all the index holds (every append succeeded) replays to the same
// entries. A log that lacks the index's last state of a hash (that append
// failed) reverts the entry to an older put, whose record its pack still
// holds, dead but whole: the entry serves that earlier record, byte for
// byte — never the old record's sizes over the new bytes.
func TestStaleLogBesideNewIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Now: newClock().now})
	if err != nil {
		t.Fatal(err)
	}
	s.PutResult(Meta{Hash: "aaaa1111", Steps: 1}, []byte("SPH1 first"), []byte(`{"pass":true}`), nil)
	s.PutResult(Meta{Hash: "bbbb2222", Steps: 1}, []byte("SPH1 second"), []byte(`{"pass":true}`), nil)
	older := tree(t, dir)["index.log"]
	s.PutResult(Meta{Hash: "bbbb2222", Steps: 2}, []byte("SPH1 second, overwritten"), []byte(`{"pass":false}`), []byte(`{"status":"ok"}`))
	whole := tree(t, dir)["index.log"]
	s.Sweep()
	files := tree(t, dir)

	same, _ := openOver(t, files, whole)
	if live := liveHashes(same); !reflect.DeepEqual(live, []string{"aaaa1111", "bbbb2222"}) || same.Stats().Quarantined != 0 {
		t.Errorf("a log the index had absorbed changed it: live %q, quarantined %d", live, same.Stats().Quarantined)
	}
	if m, ok := same.Get("bbbb2222"); !ok || m.Steps != 2 {
		t.Errorf("the overwritten entry after the replay: %+v ok=%v", m, ok)
	}

	reverted, _ := openOver(t, files, older)
	if live := liveHashes(reverted); !reflect.DeepEqual(live, []string{"aaaa1111", "bbbb2222"}) || reverted.Stats().Quarantined != 0 {
		t.Errorf("an older put beside a newer record: live %q, quarantined %d, want both entries", live, reverted.Stats().Quarantined)
	}
	if got, m, err := reverted.ReadObject("bbbb2222"); err != nil || string(got) != "SPH1 second" || m.Steps != 1 {
		t.Errorf("the reverted entry serves %q (steps %d), %v; want its earlier record", got, m.Steps, err)
	}
	if errs := reverted.PutResult(Meta{Hash: "bbbb2222"}, []byte("SPH1 recomputed"), nil, nil); !kept(reverted, "bbbb2222", errs) {
		t.Errorf("the recomputed result is not stored: errs=%v", errs)
	}
}

// TestAppendPrecedesCompaction: the write that takes the log past the
// compaction rule is journaled before the compaction it sets off, so when
// that compaction fails (here index.json.tmp is a directory) the record is in
// the log, not in memory alone, and the next process finds it.
func TestAppendPrecedesCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocker := filepath.Join(dir, "index.json.tmp")
	writeTree(t, dir, map[string][]byte{"index.json.tmp/keep": nil})
	for i := 0; i < 2+compactSlack; i++ {
		put(t, s, "aaaa", 8+i%3)
	}
	if err := s.Put(Meta{Hash: "aaaa"}, []byte("SPH1 past the rule")); err == nil {
		t.Fatal("the compaction this write set off cannot have succeeded")
	}
	log, err := os.ReadFile(filepath.Join(dir, "index.log"))
	if n := bytes.Count(log, []byte("\n")); err != nil || n != 3+compactSlack {
		t.Fatalf("the log holds %d records (%v), want the write that passed the rule in it", n, err)
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	again := checkOpenInvariants(t, dir)
	if got, _, err := again.ReadObject("aaaa"); err != nil || string(got) != "SPH1 past the rule" || again.Stats().Quarantined != 0 {
		t.Errorf("the write whose compaction failed, after a reopen: %q, %v (quarantined %d)", got, err, again.Stats().Quarantined)
	}
}
