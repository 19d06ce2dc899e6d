package store

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// swapWriteAt makes fn the write seam until the test ends.
func swapWriteAt(t testing.TB, fn func(f *os.File, b []byte, off int64) (int, error)) {
	t.Helper()
	orig := writeAt
	writeAt = fn
	t.Cleanup(func() { writeAt = orig })
}

// TestRecordWriteOutsideTheLock: a PutResult held inside its record write —
// the write seam waits on the test — does not hold the store. Get, Stats,
// ReadReport and a PutResult of another hash complete meanwhile, and the
// held hash serves its earlier record whole. A second writer of the held
// hash waits for the first instead of racing it. Released (the seam writes
// part of the record and fails), the held write stores nothing and leaves
// no file, and the second writer's record is then stored whole.
func TestRecordWriteOutsideTheLock(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const held = "aaaa1111"
	earlier := []byte("SPH1 earlier")
	if errs := s.PutResult(Meta{Hash: held}, earlier, []byte(`{"pass":true}`), nil); len(errs) != 0 {
		t.Fatal(errs)
	}
	// The seam holds the one write of the 4 MiB snapshot.
	const heldSize = 4 << 20
	release := make(chan struct{})
	swapWriteAt(t, func(f *os.File, b []byte, off int64) (int, error) {
		if len(b) != heldSize {
			return f.WriteAt(b, off)
		}
		<-release
		n, _ := f.WriteAt(b[:1024], off)
		return n, io.ErrShortWrite
	})
	first := make(chan []ArtifactError, 1)
	go func() {
		errs := s.PutResult(Meta{Hash: held}, bytes.Repeat([]byte{'x'}, heldSize), nil, nil)
		first <- errs
	}()
	within(t, "the held write's reservation", func() {
		for {
			s.mu.Lock()
			reserved := s.writing[held]
			s.mu.Unlock()
			if reserved {
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	newer := []byte("SPH1 newer")
	second := make(chan []ArtifactError, 1)
	go func() {
		errs := s.PutResult(Meta{Hash: held}, newer, nil, nil)
		second <- errs
	}()

	within(t, "calls beside the held write", func() {
		if _, ok := s.Get(held); !ok {
			t.Error("the held hash lost its earlier entry")
		}
		if got, _, err := s.ReadObject(held); err != nil || !bytes.Equal(got, earlier) {
			t.Errorf("the held hash serves %q, %v", got, err)
		}
		if got, ok := s.ReadReport(held); !ok || string(got) != `{"pass":true}` {
			t.Errorf("the held hash's report: %q ok=%v", got, ok)
		}
		if errs := s.PutResult(Meta{Hash: "bbbb2222"}, []byte("SPH1 other"), nil, nil); !kept(s, "bbbb2222", errs) {
			t.Errorf("a write of another hash: errs=%v", errs)
		}
		if st := s.Stats(); st.Entries != 2 {
			t.Errorf("Stats beside the held write: %+v", st)
		}
	})
	select {
	case errs := <-second:
		t.Fatalf("a second writer of the held hash did not wait for the first: %v", errs)
	default:
	}

	close(release)
	var errs []ArtifactError
	within(t, "the held write", func() { errs = <-first })
	if len(errs) != 1 || errs[0].Artifact != "record" {
		t.Errorf("the released write: %v, want one record error", errs)
	}
	within(t, "the second write", func() { errs = <-second })
	if len(errs) != 0 {
		t.Errorf("the second write: %v", errs)
	}
	if got, _, err := s.ReadObject(held); err != nil || !bytes.Equal(got, newer) {
		t.Errorf("after both writes the held hash serves %q, %v", got, err)
	}
	if got, ok := s.ReadReport(held); ok {
		t.Errorf("the replaced record's report is served: %q", got)
	}
	for name := range tree(t, dir) {
		if filepath.Dir(name) != "packs" && name != "index.json" && name != "index.log" {
			t.Errorf("%s left behind", name)
		}
	}
}

// within runs fn and fails the test if it has not returned in ten seconds.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not complete: the store is held", what)
	}
}
