package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeClock is an adjustable test clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClock() *fakeClock                   { return &fakeClock{t: time.Unix(1_000_000, 0)} }

// kept reports whether a write that returned errs left a live entry of
// hash.
func kept(s *Store, hash string, errs []ArtifactError) bool {
	_, live := s.Get(hash)
	return live && len(errs) == 0
}

func put(t *testing.T, s *Store, hash string, size int) []byte {
	t.Helper()
	payload := bytes.Repeat([]byte(hash[:1]), size)
	if err := s.Put(Meta{Hash: hash, Particles: size, Steps: 1}, payload); err != nil {
		t.Fatalf("put %s: %v", hash, err)
	}
	return payload
}

// where is the record of hash: its pack file and its offset there.
func where(t testing.TB, s *Store, hash string) (path string, off int64) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.entries[hash]
	if m == nil {
		t.Fatalf("no entry %s", hash)
	}
	return s.packPath(m.Pack), m.Off
}

// flipByte flips one bit of the byte at off in the file at path.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[off] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// packBytes sums the pack files on disk, live and dead bytes alike.
func packBytes(t testing.TB, dir string) int64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "packs", "*.pack"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range names {
		fi, err := os.Stat(n)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// liveBytes sums the live regions as the packs hold them: every region of
// every entry, read back and verified. A region that does not read back
// fails the test.
func liveBytes(t testing.TB, s *Store) int64 {
	t.Helper()
	s.mu.Lock()
	var live []Meta
	for _, m := range s.entries {
		live = append(live, *m)
	}
	s.mu.Unlock()
	var total int64
	for i := range live {
		for k := range regions {
			n, err := s.readRegion(&live[i], k, io.Discard)
			if err != nil {
				t.Errorf("region %d of live entry %s: %v", k, live[i].Hash, err)
			}
			total += n
		}
	}
	return total
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := put(t, s, "aaaa", 100)

	m, ok := s.Get("aaaa")
	if !ok {
		t.Fatal("entry missing after Put")
	}
	if m.Size != 100 || m.Particles != 100 {
		t.Fatalf("meta %+v", m)
	}
	got, _, err := s.ReadObject("aaaa")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload round trip mismatch")
	}
	if _, ok := s.Get("bbbb"); ok {
		t.Fatal("phantom entry")
	}
}

// TestReopenServesPriorEntries: the persistence contract — a new Store over
// the same directory serves everything a previous instance stored.
func TestReopenServesPriorEntries(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := put(t, s1, "aaaa", 256)

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, m, err := s2.ReadObject("aaaa")
	if err != nil {
		t.Fatalf("reopened store lost the entry: %v", err)
	}
	if !bytes.Equal(got, payload) || m.Particles != 256 {
		t.Fatal("reopened entry does not match what was stored")
	}
	if q := s2.Stats().Quarantined; q != 0 {
		t.Fatalf("clean reopen quarantined %d objects", q)
	}
}

// TestTTLExpiry: entries idle past the TTL disappear — lazily on access and
// wholesale on Sweep and reopen.
func TestTTLExpiry(t *testing.T) {
	dir := t.TempDir()
	clock := newClock()
	s, err := Open(dir, Options{TTL: time.Hour, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "aaaa", 10)
	put(t, s, "bbbb", 10)

	// Keep bbbb warm past aaaa's expiry.
	clock.advance(45 * time.Minute)
	if _, ok := s.Get("bbbb"); !ok {
		t.Fatal("bbbb should be live")
	}
	clock.advance(30 * time.Minute) // aaaa idle 75m, bbbb idle 30m

	if _, ok := s.Get("aaaa"); ok {
		t.Fatal("aaaa should have expired")
	}
	if _, ok := s.Get("bbbb"); !ok {
		t.Fatal("bbbb was recently used and must survive")
	}
	if s.Stats().Entries != 1 {
		t.Fatalf("store holds %d entries, want 1", s.Stats().Entries)
	}
	if got := liveBytes(t, s); got != 10 || s.Stats().Bytes != 10 {
		t.Fatalf("the expired record is still counted: %d live bytes, %+v", got, s.Stats())
	}

	// Sweep expires without traffic.
	clock.advance(2 * time.Hour)
	s.Sweep()
	if s.Stats().Entries != 0 {
		t.Fatalf("sweep left %d entries", s.Stats().Entries)
	}

	// Reopen applies the TTL too.
	put(t, s, "cccc", 10)
	clock.advance(2 * time.Hour)
	s2, err := Open(dir, Options{TTL: time.Hour, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Stats().Entries != 0 {
		t.Fatalf("reopen kept %d expired entries", s2.Stats().Entries)
	}
}

// TestLRUSizeEviction: the size cap evicts least-recently-used entries, and
// the on-disk object total never exceeds MaxBytes after any Put.
func TestLRUSizeEviction(t *testing.T) {
	dir := t.TempDir()
	clock := newClock()
	s, err := Open(dir, Options{MaxBytes: 250, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}

	for i, hash := range []string{"aaaa", "bbbb", "cccc"} {
		put(t, s, hash, 100)
		clock.advance(time.Second)
		if got := liveBytes(t, s); got > 250 {
			t.Fatalf("after put %d the live records hold %d bytes > cap 250", i, got)
		}
	}
	// aaaa (oldest) must have been evicted to fit cccc.
	if _, ok := s.Get("aaaa"); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := s.Get("bbbb"); !ok {
		t.Fatal("bbbb evicted prematurely")
	}

	// Touch bbbb, then insert dddd: cccc is now the LRU and must go.
	clock.advance(time.Second)
	if _, ok := s.Get("bbbb"); !ok {
		t.Fatal("bbbb missing")
	}
	clock.advance(time.Second)
	put(t, s, "dddd", 100)
	if _, ok := s.Get("cccc"); ok {
		t.Fatal("recently-touched bbbb was evicted instead of cccc")
	}
	if _, ok := s.Get("bbbb"); !ok {
		t.Fatal("bbbb lost after touch")
	}
	if got := liveBytes(t, s); got > 250 {
		t.Fatalf("the live records hold %d bytes > cap", got)
	}

	// An oversized snapshot is never retained.
	put(t, s, "eeee", 300)
	if _, ok := s.Get("eeee"); ok {
		t.Fatal("entry larger than the whole budget was retained")
	}
	if got := liveBytes(t, s); got > 250 {
		t.Fatalf("the live records hold %d bytes > cap after oversized put", got)
	}
}

// TestCorruptEntryQuarantinedOnReopen: flipping bytes in a stored object
// must not be served; reopen detects the CRC mismatch and moves the file to
// quarantine.
func TestCorruptEntryQuarantinedOnReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s1, "aaaa", 64)
	put(t, s1, "bbbb", 64)

	// Corrupt aaaa on disk behind the store's back.
	path, off := where(t, s1, "aaaa")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[off+10] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen over a corrupt object must not fail: %v", err)
	}
	if _, ok := s2.Get("aaaa"); ok {
		t.Fatal("corrupt entry still indexed after reopen")
	}
	if _, ok := s2.Get("bbbb"); !ok {
		t.Fatal("intact entry lost during quarantine")
	}
	if q := s2.Stats().Quarantined; q != 1 {
		t.Fatalf("quarantined %d objects, want 1", q)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "quarantine", "aaaa.sph")); err != nil || !bytes.Equal(got, raw[off:off+64]) {
		t.Fatalf("quarantine file missing or not the corrupt record: %v", err)
	}
	if got := liveBytes(t, s2); got != 64 {
		t.Fatalf("the corrupt record is still counted: %d live bytes", got)
	}
}

// TestCorruptionDetectedOnRead: corruption appearing while the store is
// open is caught by the read-path CRC check.
func TestCorruptionDetectedOnRead(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "aaaa", 64)
	path, off := where(t, s, "aaaa")
	raw, _ := os.ReadFile(path)
	raw[off] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReadObject("aaaa"); err == nil {
		t.Fatal("read of a corrupt object succeeded")
	}
	if _, ok := s.Get("aaaa"); ok {
		t.Fatal("corrupt entry still indexed after failed read")
	}
	if s.Stats().Quarantined != 1 {
		t.Fatal("corrupt object not quarantined")
	}
}

// TestUnindexedObjectQuarantined: stray files in objects/ (an older layout's
// directory) are moved aside at reopen.
func TestUnindexedObjectQuarantined(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s1, "aaaa", 16)
	writeTree(t, dir, map[string][]byte{"objects/stray.sph": []byte("junk")})
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Stats().Entries != 1 {
		t.Fatalf("store holds %d entries, want 1", s2.Stats().Entries)
	}
	if s2.Stats().Quarantined != 1 {
		t.Fatalf("quarantined %d, want 1 (the stray)", s2.Stats().Quarantined)
	}
}

// TestCorruptIndexRecovered: a mangled index.json degrades to an empty
// store with every pack quarantined whole, never an error.
func TestCorruptIndexRecovered(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s1, "aaaa", 16)
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over corrupt index: %v", err)
	}
	if s2.Stats().Entries != 0 {
		t.Fatalf("recovered store holds %d entries, want 0", s2.Stats().Entries)
	}
	if s2.Stats().Quarantined != 1 {
		t.Fatalf("quarantined %d, want 1", s2.Stats().Quarantined)
	}
}

// TestPutReplacesExisting: re-putting a hash replaces bytes and accounting.
func TestPutReplacesExisting(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "aaaa", 100)
	put(t, s, "aaaa", 40)
	if got := s.Stats().Bytes; got != 40 {
		t.Fatalf("total %d after replacement, want 40", got)
	}
	b, _, err := s.ReadObject("aaaa")
	if err != nil || len(b) != 40 {
		t.Fatalf("replacement read len=%d err=%v", len(b), err)
	}
}

func TestManyEntriesEvictionOrder(t *testing.T) {
	dir := t.TempDir()
	clock := newClock()
	s, err := Open(dir, Options{MaxBytes: 500, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		put(t, s, fmt.Sprintf("h%03d", i), 100)
		clock.advance(time.Second)
	}
	// Only the 5 newest fit.
	for i := 0; i < 5; i++ {
		if _, ok := s.Get(fmt.Sprintf("h%03d", i)); ok {
			t.Fatalf("old entry h%03d survived", i)
		}
	}
	for i := 5; i < 10; i++ {
		if _, ok := s.Get(fmt.Sprintf("h%03d", i)); !ok {
			t.Fatalf("new entry h%03d evicted", i)
		}
	}
	if liveBytes(t, s) > 500 {
		t.Fatal("live records over budget")
	}
}

func TestReportPersistsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "aaaa", 100)
	report := []byte(`{"scenario":"sod","pass":true,"l1Density":0.042}`)
	if err := s.PutReport("aaaa", report); err != nil {
		t.Fatal(err)
	}
	got, ok := s.ReadReport("aaaa")
	if !ok || !bytes.Equal(got, report) {
		t.Fatalf("ReadReport = %q ok=%v, want the stored bytes", got, ok)
	}

	// Reopen: the report must come back byte-identical.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok = s2.ReadReport("aaaa")
	if !ok || !bytes.Equal(got, report) {
		t.Fatalf("after reopen ReadReport = %q ok=%v, want identical bytes", got, ok)
	}

	// PutReport for an unknown entry is an error.
	if err := s2.PutReport("nope", report); err == nil {
		t.Error("PutReport accepted an unknown entry")
	}
}

func TestReportEvictedWithEntryAndCorruptReportDropped(t *testing.T) {
	clock := newClock()
	dir := t.TempDir()
	s, err := Open(dir, Options{TTL: time.Hour, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "aaaa", 100)
	if err := s.PutReport("aaaa", []byte(`{"pass":true}`)); err != nil {
		t.Fatal(err)
	}
	// TTL eviction removes the record, report included, with the entry.
	clock.advance(2 * time.Hour)
	s.Sweep()
	if st := s.Stats(); st.Bytes != 0 || st.ReportBytes != 0 {
		t.Errorf("record survives entry eviction: %+v", st)
	}
	if _, ok := s.ReadReport("aaaa"); ok {
		t.Error("evicted entry still serves a report")
	}

	// A tampered report region fails its CRC and is dropped, not served.
	put(t, s, "bbbb", 100)
	if err := s.PutReport("bbbb", []byte(`{"pass":true}`)); err != nil {
		t.Fatal(err)
	}
	path, off := where(t, s, "bbbb")
	flipByte(t, path, off+int64(100+len(`{"pass":`)))
	if b, ok := s.ReadReport("bbbb"); ok {
		t.Errorf("tampered report served: %q", b)
	}
	// The snapshot entry itself is unaffected.
	if _, ok := s.Get("bbbb"); !ok {
		t.Error("entry lost after report corruption")
	}
}

func TestStaleReportRemovedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "aaaa", 50)
	if err := s.PutReport("aaaa", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	// Lose the record: reopening drops the entry, and nothing of it, its
	// report included, is served or left on disk.
	if path, _ := where(t, s, "aaaa"); os.Remove(path) != nil {
		t.Fatal("cannot remove the pack")
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := s2.ReadReport("aaaa"); ok || s2.Stats().Entries != 0 {
		t.Errorf("the lost record's report is served: %q (%d entries)", b, s2.Stats().Entries)
	}
	for name := range tree(t, dir) {
		if strings.Contains(name, "aaaa") {
			t.Errorf("stale %s survives reopen", name)
		}
	}
}

// TestOldLayoutsQuarantined: a record is served only from a pack. A
// directory of the one-record-a-file layouts, with records flat at
// objects/<hash>.sph or sharded at objects/ab/<hash>.sph and their entries
// naming no pack, opens cleanly: each such file is quarantined whole and its
// entry drops as lost, a record in a pack beside them still serves, and
// objects/ is gone. A result stored again lands in a pack and serves after a
// restart.
func TestOldLayoutsQuarantined(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[string][]byte{}
	for _, hash := range []string{"aaaa", "bbbb", "abcd"} {
		payloads[hash] = put(t, s1, hash, 64)
	}
	if err := s1.PutReport("aaaa", []byte(`{"pass":true}`)); err != nil {
		t.Fatal(err)
	}
	// aaaa's record moves to a flat file, bbbb's to a shard, and their
	// entries lose the pack they named, as an older build wrote them.
	old := map[string]string{"aaaa": "objects/aaaa.sph", "bbbb": "objects/bb/bbbb.sph"}
	files := map[string][]byte{}
	s1.mu.Lock()
	for hash, name := range old {
		m := s1.entries[hash]
		raw, err := os.ReadFile(s1.packPath(m.Pack))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = raw[m.Off : m.Off+entryBytes(m)]
		m.Pack, m.Off = 0, 0
		s1.dirty = append(s1.dirty, hash)
	}
	err = s1.saveIndexLocked()
	s1.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	writeTree(t, dir, files)

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over the old layouts: %v", err)
	}
	if st := s2.Stats(); st.Entries != 1 || st.Quarantined != 2 || st.Bytes != liveBytes(t, s2) {
		t.Fatalf("after open: %+v, %d live bytes; want 1 entry, 2 quarantined", st, liveBytes(t, s2))
	}
	if _, err := os.Stat(filepath.Join(dir, "objects")); !os.IsNotExist(err) {
		t.Errorf("objects/ left after open: %v", err)
	}
	for hash, name := range old {
		if _, ok := s2.Get(hash); ok {
			t.Errorf("open serves the old record %s", hash)
		}
		if got, err := os.ReadFile(filepath.Join(dir, "quarantine", hash+".sph")); err != nil || !bytes.Equal(got, files[name]) {
			t.Errorf("old record %s not quarantined whole: %v", hash, err)
		}
	}
	if got, _, err := s2.ReadObject("abcd"); err != nil || !bytes.Equal(got, payloads["abcd"]) {
		t.Errorf("the record in a pack beside the old ones: err=%v, bytes equal=%v", err, bytes.Equal(got, payloads["abcd"]))
	}

	for hash := range old {
		put(t, s2, hash, 64)
	}
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.Entries != 3 || st.Quarantined != 0 {
		t.Errorf("after the results are stored again: %+v", st)
	}
	for hash, want := range payloads {
		if path, _ := where(t, s3, hash); filepath.Dir(path) != filepath.Join(dir, "packs") {
			t.Errorf("record %s not in a pack: %s", hash, path)
		}
		if got, _, err := s3.ReadObject(hash); err != nil || !bytes.Equal(got, want) {
			t.Errorf("entry %s after a restart: err=%v, bytes equal=%v", hash, err, bytes.Equal(got, want))
		}
	}
}

func TestStatsCounters(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "aaaa", 100)
	if err := s.PutReport("aaaa", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	s.Get("aaaa")                                         // hit
	s.Get("nope")                                         // miss
	s.Get("aaaa")                                         // hit
	if _, _, err := s.ReadObject("missing"); err == nil { // miss
		t.Fatal("ReadObject for a missing entry succeeded")
	}
	st := s.Stats()
	// Bytes is the full on-disk footprint: the 100-byte object plus the
	// 2-byte report attachment.
	if st.Entries != 1 || st.Bytes != 102 || st.Reports != 1 {
		t.Errorf("stats %+v, want 1 entry / 102 bytes / 1 report", st)
	}
	if st.ObjectBytes != 100 || st.ReportBytes != 2 || st.TelemetryBytes != 0 {
		t.Errorf("stats %+v, want byte breakdown 100/2/0", st)
	}
	if st.Hits != 2 || st.Misses != 2 || st.HitRate != 0.5 {
		t.Errorf("stats %+v, want hits=2 misses=2 hitRate=0.5", st)
	}
	if st.Quarantined != 0 {
		t.Errorf("stats %+v, want no quarantined objects", st)
	}
}

// TestTelemetryAndProfileAttachments: the telemetry attachment shares the
// report contract — byte-identical across restarts, evicted with the entry,
// corrupt files dropped rather than served. (The name is kept from when a
// CPU-profile attachment, which nothing read back, shared the test.)
func TestTelemetryAndProfileAttachments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "aaaa", 64)

	track := []byte(`{"status":"ok","samples":[{"step":1}]}`)
	if err := s.PutTelemetry("aaaa", track); err != nil {
		t.Fatal(err)
	}
	if err := s.PutTelemetry("missing", track); err == nil {
		t.Fatal("PutTelemetry for unknown entry succeeded")
	}

	if got, ok := s.ReadTelemetry("aaaa"); !ok || !bytes.Equal(got, track) {
		t.Fatalf("telemetry round trip: ok=%v", ok)
	}
	if st := s.Stats(); st.Telemetry != 1 {
		t.Fatalf("stats counted telemetry=%d", st.Telemetry)
	}

	// Byte identity across a restart.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.ReadTelemetry("aaaa"); !ok || !bytes.Equal(got, track) {
		t.Fatal("telemetry not byte-identical across reopen")
	}

	// A corrupt telemetry region is dropped, not served; the snapshot
	// before it stays.
	path, off := where(t, s2, "aaaa")
	flipByte(t, path, off+64+3)
	if _, ok := s2.ReadTelemetry("aaaa"); ok {
		t.Fatal("corrupt telemetry track served")
	}
	if got := liveBytes(t, s2); got != 64 || s2.Stats().Telemetry != 0 {
		t.Fatalf("corrupt telemetry track left in the record: %d live bytes", got)
	}
	if _, _, err := s2.ReadObject("aaaa"); err != nil {
		t.Fatalf("the snapshot went with the corrupt track: %v", err)
	}

	// Stale attachment files of the layout before records (no entry) are
	// swept on open.
	writeTree(t, dir, map[string][]byte{"telemetry/zzzz.json": track})
	if _, err := Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "telemetry", "zzzz.json")); !os.IsNotExist(err) {
		t.Fatal("stale telemetry file survived reopen")
	}
}

// TestCapIncludesAttachmentBytes: the MaxBytes cap governs the full on-disk
// footprint. Attachment bytes used to be invisible to the accounting, so a
// store full of fat telemetry tracks could blow far past its configured
// budget; now attaching data triggers the same eviction pass a Put does,
// and the on-disk total (objects + attachments) never exceeds the cap.
func TestCapIncludesAttachmentBytes(t *testing.T) {
	dir := t.TempDir()
	clock := newClock()
	s, err := Open(dir, Options{MaxBytes: 300, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "aaaa", 100)
	clock.advance(time.Second)
	put(t, s, "bbbb", 100)
	if got := liveBytes(t, s); got > 300 {
		t.Fatalf("on-disk total %d over the 300-byte cap before attachments", got)
	}
	// A 150-byte telemetry track on bbbb pushes the true footprint to 350;
	// the LRU entry (aaaa) must be evicted to get back under the cap.
	if err := s.PutTelemetry("bbbb", bytes.Repeat([]byte("t"), 150)); err != nil {
		t.Fatal(err)
	}
	if got := liveBytes(t, s); got > 300 {
		t.Fatalf("on-disk total %d over the 300-byte cap after attaching telemetry", got)
	}
	if _, _, err := s.ReadObject("aaaa"); err == nil {
		t.Error("LRU entry aaaa survived an over-budget attachment")
	}
	if _, _, err := s.ReadObject("bbbb"); err != nil {
		t.Error("recently-used entry bbbb evicted instead of the LRU one")
	}
	if got, want := s.Stats().Bytes, liveBytes(t, s); got != want {
		t.Errorf("tracked total %d != on-disk total %d", got, want)
	}
}

// TestTotalBytesTracksAttachmentsAcrossReopen: the accounting starts
// truthful on Open — attachment bytes recorded in the index count from the
// first moment, and a vanished attachment file is reconciled away.
func TestTotalBytesTracksAttachmentsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "aaaa", 100)
	if err := s.PutReport("aaaa", bytes.Repeat([]byte("r"), 40)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutTelemetry("aaaa", bytes.Repeat([]byte("t"), 60)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Bytes; got != 200 {
		t.Fatalf("TotalBytes = %d, want 200 (100 object + 40 report + 60 telemetry)", got)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().Bytes; got != 200 {
		t.Errorf("TotalBytes after reopen = %d, want 200", got)
	}

	// Cut the telemetry region off the record behind the store's back: the
	// next Open must reconcile the accounting back down instead of trusting
	// the index.
	if path, off := where(t, s2, "aaaa"); os.Truncate(path, off+140) != nil {
		t.Fatal("cannot truncate the pack")
	}
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s3.Stats().Bytes; got != 140 {
		t.Errorf("TotalBytes after losing telemetry file = %d, want 140", got)
	}
	if _, ok := s3.ReadTelemetry("aaaa"); ok {
		t.Error("vanished telemetry region still served")
	}
	if b, ok := s3.ReadReport("aaaa"); !ok || len(b) != 40 {
		t.Errorf("the report before the cut is lost: %q ok=%v", b, ok)
	}
}

// TestPutOverwriteDropsStaleAttachments: overwriting an entry replaces its
// Meta wholesale, so the old attachments — which describe the replaced
// snapshot — must be deleted and un-counted, not leaked on disk.
func TestPutOverwriteDropsStaleAttachments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "aaaa", 100)
	if err := s.PutReport("aaaa", bytes.Repeat([]byte("r"), 30)); err != nil {
		t.Fatal(err)
	}
	put(t, s, "aaaa", 50) // overwrite

	if got := s.Stats().Bytes; got != 50 {
		t.Errorf("TotalBytes after overwrite = %d, want 50", got)
	}
	if _, ok := s.ReadReport("aaaa"); ok {
		t.Error("stale report served after its entry was overwritten")
	}
	if m, _ := s.Get("aaaa"); m.ReportSize != 0 || entryBytes(&m) != 50 {
		t.Errorf("stale report left in the record: %+v", m)
	}
	if got, want := s.Stats().Bytes, liveBytes(t, s); got != want {
		t.Errorf("tracked total %d != on-disk total %d", got, want)
	}
}

// TestReportHashes: the analytics enumeration path — sorted, restricted to
// entries that actually carry a report, and free of metric side effects.
func TestReportHashes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "cccc", 10)
	put(t, s, "aaaa", 10)
	put(t, s, "bbbb", 10)
	for _, h := range []string{"cccc", "aaaa"} {
		if err := s.PutReport(h, []byte(`{"pass":true}`)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	got := s.ReportHashes()
	if len(got) != 2 || got[0] != "aaaa" || got[1] != "cccc" {
		t.Errorf("ReportHashes = %v, want [aaaa cccc]", got)
	}
	after := s.Stats()
	if before.Hits != after.Hits || before.Misses != after.Misses {
		t.Error("ReportHashes perturbed the hit/miss counters")
	}
}

// TestWriteObjectHoldsBackFinalChunk: WriteObject writes no byte of the final
// chunk before the whole region has matched its recorded CRC, and the pack
// holds all of it. A one-chunk object that is corrupt or cut short writes
// nothing; a longer object writes its earlier chunks and stops. Each time
// the entry is quarantined. A byte past the record in its pack is a dead
// byte, not damage: the object is served whole.
func TestWriteObjectHoldsBackFinalChunk(t *testing.T) {
	for _, tc := range []struct {
		name   string
		size   int
		damage func([]byte) []byte
		sent   int64
	}{
		{"one chunk, first byte", 1000, func(b []byte) []byte { b[0] ^= 1; return b }, 0},
		{"one chunk, last byte", 1000, func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, 0},
		{"one chunk, a byte longer", 1000, func(b []byte) []byte { return append(b, 's') }, 1000},
		{"one chunk, a byte shorter", 1000, func(b []byte) []byte { return b[:len(b)-1] }, 0},
		{"exactly one chunk, last byte", readChunk, func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, 0},
		{"exactly two chunks, last byte", 2 * readChunk, func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, readChunk},
		{"three chunks, first byte", 2*readChunk + 10, func(b []byte) []byte { b[0] ^= 1; return b }, 2 * readChunk},
		{"three chunks, last byte", 2*readChunk + 10, func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, 2 * readChunk},
		{"three chunks, a byte shorter", 2*readChunk + 10, func(b []byte) []byte { return b[:len(b)-1] }, 2 * readChunk},
	} {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		payload := put(t, s, "aaaa", tc.size)
		m, ok := s.Get("aaaa")
		if !ok {
			t.Fatal("no entry")
		}
		var sound bytes.Buffer
		if n, err := s.WriteObject(m, &sound); err != nil || n != int64(tc.size) || !bytes.Equal(sound.Bytes(), payload) {
			t.Fatalf("%s: the sound object wrote %d bytes, %v", tc.name, n, err)
		}
		// The record is its pack's first and only one.
		if path, _ := where(t, s, "aaaa"); os.WriteFile(path, tc.damage(bytes.Clone(payload)), 0o644) != nil {
			t.Fatal("cannot damage the pack")
		}
		var got bytes.Buffer
		n, err := s.WriteObject(m, &got)
		whole := tc.sent == int64(tc.size)
		if err == nil != whole || n != tc.sent || int64(got.Len()) != tc.sent {
			t.Errorf("%s: wrote %d bytes (%d counted), %v; want %d and an error unless that is all", tc.name, got.Len(), n, err, tc.sent)
		}
		quarantined := 1
		if whole {
			quarantined = 0
		}
		if s.Stats().Quarantined != quarantined || s.Stats().Entries != 1-quarantined {
			t.Errorf("%s: %d quarantined, %d entries; want the entry quarantined unless served whole", tc.name, s.Stats().Quarantined, s.Stats().Entries)
		}
	}
}

// TestObjectLostBetweenLookupAndRead: a pack removed after Get found its
// entry is a miss, not a quarantine; and a read of an entry another write
// has replaced since reads the record it was given, which its pack still
// holds, and leaves the replacement be.
func TestObjectLostBetweenLookupAndRead(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "aaaa", 64)
	m, ok := s.Get("aaaa")
	if !ok {
		t.Fatal("no entry")
	}
	if path, _ := where(t, s, "aaaa"); os.Remove(path) != nil {
		t.Fatal("cannot remove the pack")
	}
	var got bytes.Buffer
	if n, err := s.WriteObject(m, &got); err == nil || n != 0 || got.Len() != 0 {
		t.Errorf("lost object: wrote %d bytes, %v", got.Len(), err)
	}
	if st := s.Stats(); st.Quarantined != 0 || st.Entries != 0 || st.Hits != 0 || st.Misses != 1 {
		t.Errorf("lost object: %+v, want a miss, no entry, nothing quarantined", st)
	}

	earlier := put(t, s, "bbbb", 64)
	stale, ok := s.Get("bbbb")
	if !ok {
		t.Fatal("no entry")
	}
	replacement := put(t, s, "bbbb", 80)
	var old bytes.Buffer
	if _, err := s.WriteObject(stale, &old); err != nil || !bytes.Equal(old.Bytes(), earlier) {
		t.Errorf("a read of the replaced record: %v, bytes equal %v", err, bytes.Equal(old.Bytes(), earlier))
	}
	if b, _, err := s.ReadObject("bbbb"); err != nil || !bytes.Equal(b, replacement) || s.Stats().Quarantined != 0 {
		t.Errorf("the replacing write was undone by a stale read: %v, %d quarantined", err, s.Stats().Quarantined)
	}
}
