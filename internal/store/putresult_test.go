package store

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// tree reads every file under dir, keyed by its path relative to dir.
func tree(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// writeTree is tree's inverse: it writes files (slash-separated paths
// relative to dir) under dir.
func writeTree(t testing.TB, dir string, files map[string][]byte) {
	t.Helper()
	for name, data := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPutResultEqualsThreeCalls: there is one write path. Under a fixed
// clock and no cap, one PutResult and the Put → PutReport → PutTelemetry
// sequence (which rewrites the record twice) leave the same files — the
// index and one pack — the same entry but for where its record lies, the
// same record bytes and the same Stats, once Sweep has compacted one journal
// record on the one side and three on the other into the index (and
// deleted the log).
func TestPutResultEqualsThreeCalls(t *testing.T) {
	meta := Meta{Hash: "ab12cd34", Particles: 216, Steps: 2, SimTime: 0.125, Checksum: 42,
		// Bookkeeping a caller has no business setting: both paths ignore it.
		Size: 7, ReportSize: 9, TelemetryCRC: 11}
	snapshot := []byte("SPH1 snapshot payload")
	report := []byte(`{"reference":"sedov","pass":true}`)
	track := []byte(`{"status":"ok","samples":[{"step":1}]}`)

	open := func() (*Store, string) {
		dir := t.TempDir()
		s, err := Open(dir, Options{Now: newClock().now})
		if err != nil {
			t.Fatal(err)
		}
		return s, dir
	}
	one, oneDir := open()
	if errs := one.PutResult(meta, snapshot, report, track); !kept(one, meta.Hash, errs) {
		t.Fatalf("PutResult errs=%v, live=false on an unbounded store", errs)
	}
	three, threeDir := open()
	if err := three.Put(meta, snapshot); err != nil {
		t.Fatal(err)
	}
	if err := three.PutReport(meta.Hash, report); err != nil {
		t.Fatal(err)
	}
	if err := three.PutTelemetry(meta.Hash, track); err != nil {
		t.Fatal(err)
	}
	if _, live := three.Get(meta.Hash); !live { // as kept looked up one's
		t.Fatal("the three calls left no live entry")
	}

	one.Sweep()
	three.Sweep()
	if a, b := keys(tree(t, oneDir)), keys(tree(t, threeDir)); !reflect.DeepEqual(a, []string{"index.json", "packs/1.pack"}) || !reflect.DeepEqual(a, b) {
		t.Errorf("PutResult left %q, the three calls %q; want the index and one pack", a, b)
	}
	record := func(s *Store, dir string) (Meta, []byte) {
		m := *s.entries[meta.Hash]
		pack := tree(t, dir)[filepath.ToSlash(strings.TrimPrefix(s.packPath(m.Pack), dir+string(filepath.Separator)))]
		rec := pack[m.Off : m.Off+entryBytes(&m)]
		m.Pack, m.Off = 0, 0
		return m, rec
	}
	ma, ra := record(one, oneDir)
	mb, rb := record(three, threeDir)
	if ma != mb || !bytes.Equal(ra, rb) {
		t.Errorf("the one call and the three differ:\n%+v %q\n%+v %q", ma, ra, mb, rb)
	}
	if sa, sb := one.Stats(), three.Stats(); sa != sb {
		t.Errorf("Stats differ:\n%+v\n%+v", sa, sb)
	}
	if got, ok := one.ReadTelemetry(meta.Hash); !ok || !bytes.Equal(got, track) {
		t.Error("track written by PutResult does not read back")
	}
}

// TestPutResultEvictedByOwnPass: a record larger than the budget is written,
// counted, and evicted by the one pass that follows — it reports no error
// but Get misses it, and nothing of the record stays on disk or in the
// accounting.
func TestPutResultEvictedByOwnPass(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: 120})
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot alone fits; snapshot + report + track (160) does not.
	errs := s.PutResult(Meta{Hash: "aaaa"}, bytes.Repeat([]byte("s"), 100),
		bytes.Repeat([]byte("r"), 30), bytes.Repeat([]byte("t"), 30))
	if _, live := s.Get("aaaa"); live || len(errs) != 0 {
		t.Fatalf("PutResult errs=%v, live=%v; want an evicted record and no write error", errs, live)
	}
	if s.Stats().Entries != 0 || s.Stats().Bytes != 0 {
		t.Errorf("store holds %d entries / %d bytes after evicting its only record", s.Stats().Entries, s.Stats().Bytes)
	}
	if got := liveBytes(t, s); got != 0 {
		t.Errorf("%d bytes of the evicted record still live", got)
	}
	if st := s.Stats(); st.Puts != 1 || st.Evictions != 1 {
		t.Errorf("stats %+v, want one put and one eviction", st)
	}

	// A record whose pack cannot be written is reported as the record, and
	// nothing of it is stored; written again once it can be, it is kept
	// whole.
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "packs"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, Options{MaxBytes: 120}); err != nil {
		t.Fatal(err)
	}
	errs = s.PutResult(Meta{Hash: "bbbb"}, []byte("snap"), []byte("rep"), []byte("trk"))
	if _, live := s.Get("bbbb"); live || len(errs) != 1 || errs[0].Artifact != "record" || errs[0].Err == nil {
		t.Fatalf("PutResult errs=%v, live=%v; want nothing kept and one record error", errs, live)
	}
	if _, ok := s.ReadReport("bbbb"); ok || s.Stats().Entries != 0 || s.Stats().Bytes != 0 {
		t.Errorf("a record that was never written is served or counted: %+v", s.Stats())
	}
	if err := os.Remove(filepath.Join(dir, "packs")); err != nil {
		t.Fatal(err)
	}
	if errs = s.PutResult(Meta{Hash: "bbbb"}, []byte("snap"), []byte("rep"), []byte("trk")); !kept(s, "bbbb", errs) {
		t.Fatalf("PutResult errs=%v, live=false once the record can be written", errs)
	}
	if got, ok := s.ReadTelemetry("bbbb"); !ok || string(got) != "trk" {
		t.Error("the track of the record written whole is lost")
	}
}

// parentIndex is an index.json as a build that kept the report, the track
// and a profile in files beside the snapshot wrote it (Put, PutReport,
// PutTelemetry, PutProfile under a fixed clock).
const parentIndex = `{
  "version": 1,
  "entries": {
    "ab12cd34": {
      "hash": "ab12cd34",
      "particles": 216,
      "steps": 2,
      "simTime": 0.125,
      "checksum": 42,
      "size": 21,
      "crc": 13976548776490360967,
      "createdAt": 1000000,
      "lastUsed": 1000000,
      "reportSize": 33,
      "reportCRC": 3095550026494226785,
      "telemetrySize": 38,
      "telemetryCRC": 373139986806398433,
      "profileSize": 4,
      "profileCRC": 16053425590499601753
    }
  }
}`

// parentTree is a data directory of parentIndex: a snapshot-only record,
// the report and track in files beside it, and CPU profiles.
func parentTree(snapshot, report, track []byte) map[string][]byte {
	return map[string][]byte{
		"index.json":              []byte(parentIndex),
		"objects/ab/ab12cd34.sph": snapshot,
		"reports/ab12cd34.json":   report,
		"telemetry/ab12cd34.json": track,
		"profiles/ab12cd34.pprof": {0x1f, 0x8b, 0x08, 0x00},
		"profiles/feedbeef.pprof": {0x1f, 0x8b},
	}
}

// TestParentFormatDirectoryOpens: Open reads only the layout it writes. A
// data directory of an older build (parentIndex, a one-record-a-file
// objects/ layout, side files, profiles) opens empty: its record is
// quarantined whole, its entry drops as lost, nothing of it is served, and
// the objects/, reports/, telemetry/ and profiles/ directories are gone. A
// second Open changes nothing.
func TestParentFormatDirectoryOpens(t *testing.T) {
	dir := t.TempDir()
	snapshot := []byte("SPH1 snapshot payload")
	writeTree(t, dir, parentTree(snapshot, []byte(`{"reference":"sedov","pass":true}`), []byte(`{"status":"ok","samples":[{"step":1}]}`)))
	var first map[string][]byte
	for open := range 2 {
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		files := tree(t, dir)
		if open == 0 {
			first = files
		} else if !reflect.DeepEqual(files, first) {
			t.Errorf("the second open changed the directory: %q, then %q", keys(first), keys(files))
		}
		if want := []string{"index.json", "quarantine/ab12cd34.sph"}; !reflect.DeepEqual(keys(files), want) || !bytes.Equal(files[want[1]], snapshot) {
			t.Errorf("open %d left %q, want %q with the record whole", open, keys(files), want)
		}
		for _, old := range []string{"objects", "reports", "telemetry", "profiles"} {
			if _, err := os.Stat(filepath.Join(dir, old)); !os.IsNotExist(err) {
				t.Errorf("open %d left %s/: %v", open, old, err)
			}
		}
		if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Quarantined != 1-open {
			t.Errorf("open %d: %+v", open, st)
		}
		got, _, err := s.ReadObject("ab12cd34")
		rep, rok := s.ReadReport("ab12cd34")
		trk, tok := s.ReadTelemetry("ab12cd34")
		if err == nil || rok || tok {
			t.Errorf("open %d serves %q, report %q, track %q", open, got, rep, trk)
		}
	}
}

// TestParentLayoutFoldsIntoRecords: a result lives only in a pack. Once the
// result of parentTree's quarantined record is stored again, the directory
// holds the index and one pack, snapshot, report and track back to back,
// byte for byte the pack a fresh store writes for the same result, and all
// three serve byte for byte, again after a restart.
func TestParentLayoutFoldsIntoRecords(t *testing.T) {
	dir := t.TempDir()
	snapshot := []byte("SPH1 snapshot payload")
	report := []byte(`{"reference":"sedov","pass":true}`)
	track := []byte(`{"status":"ok","samples":[{"step":1}]}`)
	writeTree(t, dir, parentTree(snapshot, report, track))
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	meta := Meta{Hash: "ab12cd34", Particles: 216, Steps: 2, SimTime: 0.125, Checksum: 42}
	if errs := s.PutResult(meta, snapshot, report, track); !kept(s, meta.Hash, errs) {
		t.Fatalf("PutResult errs=%v, live=false", errs)
	}
	fresh, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh.PutResult(meta, snapshot, report, track)
	freshPack := tree(t, fresh.dir)["packs/1.pack"]
	for restart := range 2 {
		if restart > 0 {
			if s, err = Open(dir, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		var names []string
		for name := range tree(t, dir) {
			if name != "index.log" {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		pack := tree(t, dir)["packs/1.pack"]
		if want := []string{"index.json", "packs/1.pack", "quarantine/ab12cd34.sph"}; !reflect.DeepEqual(names, want) || !bytes.Equal(pack, bytes.Join([][]byte{snapshot, report, track}, nil)) || !bytes.Equal(pack, freshPack) {
			t.Errorf("open %d left %q, pack %q; want the index, the quarantined record and the whole record in one pack", restart, names, pack)
		}
		got, _, err := s.ReadObject("ab12cd34")
		rep, rok := s.ReadReport("ab12cd34")
		trk, tok := s.ReadTelemetry("ab12cd34")
		if err != nil || !bytes.Equal(got, snapshot) || !rok || !bytes.Equal(rep, report) || !tok || !bytes.Equal(trk, track) {
			t.Errorf("open %d serves %q (%v), %q, %q", restart, got, err, rep, trk)
		}
		if st := s.Stats(); st.Bytes != 21+33+38 || st.Quarantined != 1-restart {
			t.Errorf("open %d: %+v", restart, st)
		}
	}
}

// TestRecordsShareOnePack: after N PutResults the store holds one pack with
// N records back to back and no other file but the index, and every region
// of every record reads back byte for byte after a restart.
func TestRecordsShareOnePack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	want := map[string][3][]byte{}
	var packed int
	for i := range n {
		hash := fmt.Sprintf("%02x%06d", i*13%256, i)
		parts := [3][]byte{bytes.Repeat([]byte{'s'}, 100+i), []byte("report " + hash), nil}
		if i%3 != 0 {
			parts[2] = []byte("track " + hash) // some records have no track
		}
		if errs := s.PutResult(Meta{Hash: hash}, parts[0], parts[1], parts[2]); !kept(s, hash, errs) {
			t.Fatalf("PutResult %s: errs=%v, live=false", hash, errs)
		}
		want[hash] = parts
		packed += len(parts[0]) + len(parts[1]) + len(parts[2])
	}
	files := tree(t, dir)
	if names := keys(files); !reflect.DeepEqual(names, []string{"index.json", "index.log", "packs/1.pack"}) {
		t.Errorf("%d PutResults left %q, want the index and one pack", n, names)
	}
	if len(files["packs/1.pack"]) != packed {
		t.Errorf("the pack holds %d bytes, the %d records %d", len(files["packs/1.pack"]), n, packed)
	}
	again, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for hash, parts := range want {
		got, _, err := again.ReadObject(hash)
		rep, _ := again.ReadReport(hash)
		trk, _ := again.ReadTelemetry(hash)
		if err != nil || !bytes.Equal(got, parts[0]) || !bytes.Equal(rep, parts[1]) || !bytes.Equal(trk, parts[2]) {
			t.Errorf("%s after a restart: %q (%v), %q, %q", hash, got, err, rep, trk)
		}
	}
}

// keys lists a tree's file names, sorted.
func keys(files map[string][]byte) []string {
	var names []string
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestPutResultConcurrent: writers and readers from several goroutines over
// a cap that forces evictions; the accounting still equals the live regions
// and bounds the packs after a Sweep, the cap holds, and every record still
// live reads back whole. Run under -race.
func TestPutResultConcurrent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: 2000})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				hash := fmt.Sprintf("%02x%02x", g, i)
				snap := bytes.Repeat([]byte{byte('a' + g)}, 100)
				if errs := s.PutResult(Meta{Hash: hash}, snap, []byte("report "+hash), []byte("track "+hash)); len(errs) != 0 {
					t.Errorf("PutResult %s: %v", hash, errs)
				}
				// The entry may be evicted by another writer at any time;
				// when it is served, it is served whole.
				if got, _, err := s.ReadObject(hash); err == nil && !bytes.Equal(got, snap) {
					t.Errorf("entry %s serves a torn snapshot", hash)
				}
				if got, ok := s.ReadReport(hash); ok && string(got) != "report "+hash {
					t.Errorf("entry %s serves report %q", hash, got)
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := s.Stats().Bytes, liveBytes(t, s); got != want || got > 2000 {
		t.Errorf("tracked total %d, live regions %d, cap 2000", got, want)
	}
	s.Sweep()
	if packed := packBytes(t, dir); packed > 2*s.Stats().Bytes+packLimit {
		t.Errorf("after Sweep the packs hold %d bytes for %d live", packed, s.Stats().Bytes)
	}
	if st := s.Stats(); st.Puts != 100 || int(st.Puts-st.Evictions) != st.Entries {
		t.Errorf("stats %+v: puts - evictions should be the live entries", st)
	}
}
