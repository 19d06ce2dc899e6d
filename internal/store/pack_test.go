package store

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
)

// result is one stored result's three regions.
type result [len(regions)][]byte

func resultOf(hash string, size int) result {
	return result{bytes.Repeat([]byte(hash[:1]), size), []byte("report " + hash), []byte("track " + hash)}
}

// putResult stores r under hash and fails the test unless it is kept whole.
func putResult(t testing.TB, s *Store, hash string, r result) {
	t.Helper()
	if errs := s.PutResult(Meta{Hash: hash}, r[0], r[1], r[2]); !kept(s, hash, errs) {
		t.Fatalf("PutResult %s: errs=%v, live=false", hash, errs)
	}
}

// wantResults fails the test unless s serves every result of want byte for
// byte, and nothing under the hashes of gone.
func wantResults(t testing.TB, s *Store, want map[string]result, gone ...string) {
	t.Helper()
	for hash, r := range want {
		snap, _, err := s.ReadObject(hash)
		rep, _ := s.ReadReport(hash)
		trk, _ := s.ReadTelemetry(hash)
		if err != nil || !bytes.Equal(snap, r[0]) || !bytes.Equal(rep, r[1]) || !bytes.Equal(trk, r[2]) {
			t.Errorf("%s serves %d snapshot bytes (%v), report %q, track %q; want what was written", hash, len(snap), err, rep, trk)
		}
	}
	for _, hash := range gone {
		if _, ok := s.Get(hash); ok {
			t.Errorf("%s is served", hash)
		}
	}
}

// copyDir is dir as a process killed now would leave it.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	writeTree(t, dst, tree(t, dir))
	return dst
}

// TestTornTailReopens: bytes a killed process left in a pack serve nothing
// and cost no acknowledged entry. (a) A write killed half way through its
// reservation, never journaled, with an acknowledged write after it in the
// same pack: on reopen every acknowledged entry serves byte for byte, the
// torn hash is a miss, nothing is quarantined (the torn bytes are dead, not
// a record), and a further write and reopen change none of that. (b) A pack
// truncated inside its last live record: that entry goes to quarantine,
// never served torn, and every other entry of the pack serves byte for
// byte. Fails if a write journals its entry at the reservation, before the
// fill ((a) then quarantines), or if quarantining a record moves its whole
// pack aside ((b) then loses the intact entries).
func TestTornTailReopens(t *testing.T) {
	t.Run("reservation half written", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]result{"aaaa": resultOf("aaaa", 300), "bbbb": resultOf("bbbb", 200)}
		putResult(t, s, "aaaa", want["aaaa"])
		putResult(t, s, "bbbb", want["bbbb"])

		const tornSize = 1000
		held, release := make(chan struct{}), make(chan struct{})
		swapWriteAt(t, func(f *os.File, b []byte, off int64) (int, error) {
			if len(b) != tornSize {
				return f.WriteAt(b, off)
			}
			n, err := f.WriteAt(b[:tornSize/2], off)
			close(held)
			<-release
			return n, err
		})
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.PutResult(Meta{Hash: "cccc"}, bytes.Repeat([]byte{'c'}, tornSize), nil, nil)
		}()
		<-held
		want["dddd"] = resultOf("dddd", 100)
		putResult(t, s, "dddd", want["dddd"]) // after the torn range, in the same pack
		killed := copyDir(t, dir)
		close(release)
		<-done

		for restart := range 2 {
			again, err := Open(killed, Options{})
			if err != nil {
				t.Fatal(err)
			}
			wantResults(t, again, want, "cccc")
			if st := again.Stats(); st.Quarantined != 0 || st.Entries != len(want) || st.Bytes != liveBytes(t, again) {
				t.Errorf("restart %d: %+v, want %d entries and nothing quarantined", restart, st, len(want))
			}
			want["eeee"] = resultOf("eeee", 50)
			putResult(t, again, "eeee", want["eeee"])
		}
	})

	for _, cut := range []struct {
		name string
		at   int64
	}{{"pack cut inside a live snapshot", 10}, {"pack cut inside a live report", 300 + 3}} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]result{}
			for i, hash := range []string{"aaaa", "bbbb", "cccc"} {
				want[hash] = resultOf(hash, 100*(i+1))
				putResult(t, s, hash, want[hash])
			}
			path, off := where(t, s, "cccc")
			if err := os.Truncate(path, off+cut.at); err != nil {
				t.Fatal(err)
			}
			again, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			quarantined := 1
			if cut.at < 300 {
				delete(want, "cccc")
				wantResults(t, again, want, "cccc")
			} else { // the snapshot before the cut stays; nothing after it
				want["cccc"] = result{want["cccc"][0], nil, nil}
				wantResults(t, again, want)
				quarantined = 0
			}
			if st := again.Stats(); st.Quarantined != quarantined || st.Entries != len(want) || st.Bytes != liveBytes(t, again) {
				t.Errorf("%+v, want %d quarantined and %d entries", st, quarantined, len(want))
			}
		})
	}
}

// TestCompactionSparesWriteInFlight: a sealed pack with a write still
// filling its range is neither compacted nor deleted, even with no live
// record in it, and the record that write completes there reads back byte
// for byte, as do the others; Open then compacts the pack, and every entry
// is byte for byte the same after the restart. Fails if a pack with a write
// in flight may be deleted: the held write then fills a deleted file.
func TestCompactionSparesWriteInFlight(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]result{"aaaa": {bytes.Repeat([]byte{'a'}, packLimit-1000), nil, nil}}
	putResult(t, s, "aaaa", want["aaaa"])

	// The held write reserves the last 500 bytes that fit in pack 1.
	const heldSize = 500
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	swapWriteAt(t, func(f *os.File, b []byte, off int64) (int, error) {
		if len(b) == heldSize {
			once.Do(func() { close(held); <-release })
		}
		return f.WriteAt(b, off)
	})
	want["wwww"] = result{bytes.Repeat([]byte{'w'}, heldSize), []byte("report wwww"), nil}
	done := make(chan []ArtifactError)
	go func() {
		errs := s.PutResult(Meta{Hash: "wwww"}, want["wwww"][0], want["wwww"][1], nil)
		done <- errs
	}()
	<-held
	// The next write does not fit: pack 2 starts and pack 1 is sealed. Then
	// aaaa is stored again, in pack 2, so pack 1 has no live record at all.
	want["xxxx"] = resultOf("xxxx", 1000)
	putResult(t, s, "xxxx", want["xxxx"])
	want["aaaa"] = resultOf("aaaa", 10)
	putResult(t, s, "aaaa", want["aaaa"])
	s.Sweep()
	if _, err := os.Stat(s.packPath(1)); err != nil {
		t.Fatalf("the pack a write is filling was deleted: %v", err)
	}
	close(release)
	if errs := <-done; len(errs) != 0 {
		t.Fatalf("the held write: %v", errs)
	}
	if path, _ := where(t, s, "wwww"); path != s.packPath(1) {
		t.Fatalf("the held write's record is in %s, not the sealed pack", path)
	}
	wantResults(t, s, want)

	again, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantResults(t, again, want)
	if _, err := os.Stat(again.packPath(1)); !os.IsNotExist(err) {
		t.Errorf("Open kept the sparse pack 1: %v", err)
	}
	if st := again.Stats(); st.Quarantined != 0 || packBytes(t, dir) > 2*st.Bytes+packLimit {
		t.Errorf("after the restart: %+v, %d bytes in packs", st, packBytes(t, dir))
	}
}

// TestConcurrentPutResultsGetDisjointRanges: PutResults from several
// goroutines, each a record of its own size, reserve ranges that do not
// overlap, and every record reads back byte for byte. Run under -race,
// which fails if the range is reserved outside s.mu.
func TestConcurrentPutResultsGetDisjointRanges(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]result{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				hash := fmt.Sprintf("%c%03d", 'a'+g, i)
				r := resultOf(hash, 1+97*g+13*i)
				putResult(t, s, hash, r)
				mu.Lock()
				want[hash] = r
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	type span struct{ pack, start, end int64 }
	var spans []span
	for _, m := range s.entries {
		spans = append(spans, span{m.Pack, m.Off, m.Off + entryBytes(m)})
	}
	sort.Slice(spans, func(i, j int) bool {
		return spans[i].pack < spans[j].pack || spans[i].pack == spans[j].pack && spans[i].start < spans[j].start
	})
	for i := 1; i < len(spans); i++ {
		if a, b := spans[i-1], spans[i]; a.pack == b.pack && a.end > b.start {
			t.Errorf("ranges overlap in pack %d: [%d,%d) and [%d,%d)", a.pack, a.start, a.end, b.start, b.end)
		}
	}
	wantResults(t, s, want)
}

// TestEmptyRecordKeepsItsPack: a record of no bytes holds its pack like any
// other: the pack outlives the other records in it, Sweep moves the empty
// record out before the pack goes, and the entry reads back empty, also
// after a restart.
func TestEmptyRecordKeepsItsPack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]result{"aaaa": {[]byte{}, nil, nil}, "bbbb": resultOf("bbbb", 100)}
	putResult(t, s, "aaaa", want["aaaa"])
	putResult(t, s, "bbbb", want["bbbb"])
	if s, err = Open(dir, Options{}); err != nil { // pack 1 is sealed now
		t.Fatal(err)
	}
	want["bbbb"] = resultOf("bbbb", 50)
	putResult(t, s, "bbbb", want["bbbb"]) // pack 1 keeps only the empty record
	if _, err := os.Stat(s.packPath(1)); err != nil {
		t.Fatalf("the pack of a live empty record was deleted: %v", err)
	}
	s.Sweep()
	wantResults(t, s, want)
	again, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantResults(t, again, want)
}
