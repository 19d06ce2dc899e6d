// Package store is the persistent, content-addressed result store of the
// simulation service: completed results keyed by canonical spec hash
// (scenario.Spec.Hash), written atomically (temp file + rename), read back
// in one CRC-verified pass outside the lock (readFile), and bounded by a
// combined TTL + size-capped LRU eviction policy. A server restart reopens
// the same directory and serves prior results as cache hits; entries whose
// bytes no longer match their recorded CRC are quarantined, not trusted and
// not fatal — the store degrades to recomputation, never to corrupt data.
//
// A stored result is one record, one file: snapshot, report and telemetry
// track back to back, each region checked against the size and CRC its entry
// records. A write fills the temp file with the lock released; the rename,
// the entry, one eviction pass and one journal append share one lock hold,
// so a record and its index entry appear together. Reads lock for lookups.
//
// The index is index.json plus a journal, index.log: a mutation appends the
// entries it changed (journal.go has the record format), so a write's cost
// does not depend on how many results the store holds. Compaction — rewrite
// index.json, delete the log — runs at the end of Open, from Sweep, and when
// the log passes twice the live entries plus compactSlack records. Open
// replays the log over index.json up to its first bad frame (a torn tail
// loses the records after the tear; an unreadable index.json makes the log
// meaningless and the store opens empty), then checks the result against the
// files. Nothing is fsynced: it survives a killed process, not a power cut.
//
// Layout under the root directory:
//
//	index.json             entry metadata as of the last compaction
//	index.log              CRC-framed put/del records since then
//	objects/ab/abcd….sph   records: the snapshot (part binary checkpoint
//	                       format), then the report and the telemetry track;
//	                       sharded by the first two hash characters
//	quarantine/            corrupt or unindexed records moved aside on detection
//
// Open reads only this layout. Of an older one, a flat objects/abcd….sph is
// quarantined (its entry drops as lost) and the reports/, telemetry/ and
// profiles/ directories kept beside the records are removed: nothing of
// theirs is served.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Meta describes one stored result. The identifying fields (Particles,
// Steps, SimTime, Checksum) are supplied by the caller at Put time; the
// bookkeeping fields (Size, CRC, CreatedAt, LastUsed) are owned by the store.
type Meta struct {
	// Hash is the canonical spec hash the entry is addressed by.
	Hash string `json:"hash"`
	// Particles is the snapshot's particle count.
	Particles int `json:"particles"`
	// Steps and SimTime record how far the producing job ran.
	Steps   int     `json:"steps"`
	SimTime float64 `json:"simTime"`
	// Checksum is the part payload CRC-64 fingerprint of the particle
	// state (part.Set.Checksum), used by callers to compare results.
	Checksum uint64 `json:"checksum"`
	// Size is the snapshot region's size in bytes.
	Size int64 `json:"size"`
	// CRC is the CRC-64/ECMA of the snapshot region; reads verify against
	// it and quarantine on mismatch.
	CRC uint64 `json:"crc"`
	// CreatedAt and LastUsed are unix seconds; LastUsed drives both the
	// TTL (idle expiry) and the LRU eviction order.
	CreatedAt int64 `json:"createdAt"`
	LastUsed  int64 `json:"lastUsed"`
	// The size and CRC of the record's report and telemetry regions (see
	// region); size zero means none.
	ReportSize    int64  `json:"reportSize,omitempty"`
	ReportCRC     uint64 `json:"reportCRC,omitempty"`
	TelemetrySize int64  `json:"telemetrySize,omitempty"`
	TelemetryCRC  uint64 `json:"telemetryCRC,omitempty"`
}

const (
	regionSnapshot = iota
	regionReport
	regionTelemetry
)

// regions are the parts of a record, each served byte for byte or not at
// all: back to back, in this order, they are the record file. Each is where
// an entry records that region's size and CRC.
var regions = [...]func(*Meta) (size *int64, crc *uint64){
	regionSnapshot:  func(m *Meta) (*int64, *uint64) { return &m.Size, &m.CRC },
	regionReport:    func(m *Meta) (*int64, *uint64) { return &m.ReportSize, &m.ReportCRC },
	regionTelemetry: func(m *Meta) (*int64, *uint64) { return &m.TelemetrySize, &m.TelemetryCRC },
}

// extent is where a region lies in its record, and its CRC.
type extent struct {
	off, size int64
	crc       uint64
}

// extents locates every region of m's record; two entries with equal
// extents record the same regions.
func (m *Meta) extents() (e [len(regions)]extent) {
	var off int64
	for k := range regions {
		size, crc := regions[k](m)
		e[k], off = extent{off, *size, *crc}, off+*size
	}
	return e
}

// Options bounds the store.
type Options struct {
	// TTL evicts entries idle (not Put or read) for longer than this;
	// 0 disables expiry.
	TTL time.Duration
	// MaxBytes caps the total bytes on disk — every region of every
	// record; least-recently-used entries are evicted to stay under it.
	// 0 disables the cap.
	MaxBytes int64
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

// Store is a disk-backed content-addressed result store. All methods are
// safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	entries map[string]*Meta // guarded by mu
	total   int64            // sum of entry bytes, the record files' sizes; guarded by mu
	// writing reserves a hash while its record is written outside the lock:
	// a second writer of the hash waits on idle, broadcast as one ends.
	writing map[string]bool // guarded by mu
	idle    *sync.Cond
	// counts holds the since-open counters of Stats (Hits, Misses,
	// Quarantined, Puts, Evictions); Stats derives its other fields.
	counts Stats // guarded by mu

	// The journal (journal.go): hashes changed since the last append, the
	// append handle, records in index.log, and "an append failed part-way".
	dirty      []string // guarded by mu
	log        *os.File // guarded by mu
	logRecords int      // guarded by mu
	logTorn    bool     // guarded by mu
}

type indexFile struct {
	Version int              `json:"version"`
	Entries map[string]*Meta `json:"entries"`
}

// Open loads (or initializes) a store rooted at dir: index.json, then the
// records of index.log on top of it. Every indexed record is re-verified
// region by region (reconcile): corrupt or missing-from-index files are
// moved to the quarantine directory and dropped, then the TTL and size
// policies are applied and the result compacted — so a freshly opened store
// is always consistent, within budget, and has no log.
func Open(dir string, opts Options) (*Store, error) {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	s := &Store{dir: dir, opts: opts, entries: map[string]*Meta{}, writing: map[string]bool{}}
	s.idle = sync.NewCond(&s.mu)

	// Temp files of writes a killed process never renamed belong to no entry.
	for _, glob := range []string{"*.tmp", "*/*.tmp", "objects/*/*.tmp"} {
		stray, _ := filepath.Glob(filepath.Join(s.dir, glob))
		for _, path := range stray {
			_ = os.Remove(path)
		}
	}

	// A missing or corrupt index is recoverable: start empty (the log means
	// nothing without it), and the sweep below quarantines every object
	// (their provenance is unverifiable).
	var idx indexFile
	if b, err := os.ReadFile(s.indexPath()); err != nil || json.Unmarshal(b, &idx) != nil {
		idx = indexFile{}
	} else if log, err := os.ReadFile(s.logPath()); err == nil {
		if idx.Entries == nil {
			idx.Entries = map[string]*Meta{}
		}
		replay(log, idx.Entries)
	}

	for hash, m := range idx.Entries {
		path := s.objectPath(hash)
		if fileHash(path, ".sph") != hash {
			continue // not a key a write produced; the file answers to its own name
		}
		if m == nil {
			m = &Meta{Size: -1} // vouches for nothing: its object goes the way of a corrupt one
		}
		m.Hash = hash
		if err := s.reconcile(m); err != nil {
			if err == errCorrupt {
				s.quarantineLocked(path, hash)
			}
			continue
		}
		s.entries[hash] = m
		s.total += entryBytes(m)
	}

	// Objects on disk that the index does not vouch for are quarantined, and
	// so is a file at another path than its entry's: an older flat layout's.
	for _, glob := range []string{"*.sph", "*/*.sph"} {
		objects, _ := filepath.Glob(filepath.Join(s.objectsDir(), glob))
		for _, path := range objects {
			if hash := fileHash(path, ".sph"); s.entries[hash] == nil || s.objectPath(hash) != path {
				s.quarantineLocked(path, hash)
			}
		}
	}
	// What older layouts kept beside the records is no entry's: attachment
	// files, and CPU profiles nothing read back.
	for _, old := range []string{"reports", "telemetry", "profiles"} {
		_ = os.RemoveAll(filepath.Join(s.dir, old))
	}

	s.evictLocked(s.opts.Now())
	if err := s.saveIndexLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) indexPath() string  { return filepath.Join(s.dir, "index.json") }
func (s *Store) logPath() string    { return filepath.Join(s.dir, "index.log") }
func (s *Store) objectsDir() string { return filepath.Join(s.dir, "objects") }

// objectPath shards the objects directory by the first two hash characters,
// so entry counts in the tens of thousands never pile into one directory.
func (s *Store) objectPath(h string) string {
	if len(h) < 2 {
		return filepath.Join(s.objectsDir(), h+".sph")
	}
	return filepath.Join(s.objectsDir(), h[:2], h+".sph")
}

// reconcile is Open's check of the entry m against its record. The snapshot
// region must match, or the entry goes (the error says how). An attachment
// region that fails is dropped, unless the record is longer than m says:
// then it is not m's record, and goes whole. A record that is not exactly
// the regions kept is rewritten.
func (s *Store) reconcile(m *Meta) error {
	path := s.objectPath(m.Hash)
	fi, err := os.Stat(path)
	if err != nil {
		return errLost
	}
	longer := fi.Size() > entryBytes(m)
	var b bytes.Buffer
	var off int64 // where the region is in the record m describes
	for k := range regions {
		size, crc := regions[k](m)
		mark := b.Len()
		_, err := readFile(path, off, *size, *crc, -1, &b)
		off += *size
		switch {
		case err != nil && k == regionSnapshot:
			return err
		case err != nil && longer:
			return errCorrupt
		case err != nil:
			b.Truncate(mark)
			*size, *crc = 0, 0
		}
	}
	if int64(b.Len()) == fi.Size() {
		return nil
	}
	return writeAtomic(path, b.Bytes())
}

// fileHash recovers the hash from a stored file's path ("<hash><ext>").
func fileHash(path, ext string) string {
	return strings.TrimSuffix(filepath.Base(path), ext)
}

// saveIndexLocked is compaction, O(entries) and never per write: index.json
// rewritten atomically, then the log deleted. Killed in between, the stale log
// replays at the next Open and costs at most a recompute (see journalLocked).
func (s *Store) saveIndexLocked() error {
	b, err := json.MarshalIndent(indexFile{Version: 1, Entries: s.entries}, "", "  ")
	if err != nil {
		return err
	}
	if err := writeAtomic(s.indexPath(), b); err != nil {
		return err
	}
	_ = s.log.Close() // nil before the first append; the index holds all it held
	s.log = nil
	s.dirty, s.logRecords, s.logTorn = s.dirty[:0], 0, false
	if err := os.Remove(s.logPath()); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// writeAtomic replaces path with data: its temp file, <path>.tmp, then a
// rename, so a reader sees the old bytes or the new ones, never a torn file.
func writeAtomic(path string, data []byte) error {
	err := writeTemp(path, data)
	if err == nil {
		if err = os.Rename(path+".tmp", path); err != nil {
			_ = os.Remove(path + ".tmp")
		}
	}
	return err
}

// writeTemp writes parts, back to back, to path's temp file, creating the
// directory only when the first attempt finds it missing.
func writeTemp(path string, parts ...[]byte) error {
	tmp, flag := path+".tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC
	f, err := os.OpenFile(tmp, flag, 0o644)
	if os.IsNotExist(err) && os.MkdirAll(filepath.Dir(path), 0o755) == nil {
		f, err = os.OpenFile(tmp, flag, 0o644)
	}
	for i := 0; err == nil && i < len(parts); i++ {
		_, err = f.Write(parts[i])
	}
	if f != nil {
		err = errors.Join(err, f.Close())
	}
	if err != nil {
		_ = os.Remove(tmp) // a part-written temp file is bytes no entry accounts for
		return fmt.Errorf("store: writing %s: %w", tmp, err)
	}
	return nil
}

// readChunk bounds the bytes a read holds at once.
const readChunk = 64 << 10

// readBufs recycles readFile's chunk buffers, so a read allocates none.
var readBufs = sync.Pool{New: func() any { return new([readChunk]byte) }}

// readFile's verdicts on a file that cannot be served.
var errCorrupt, errLost = errors.New("failed CRC verification"), errors.New("object file missing")

// readFile is the store's one read, run without s.mu: the size bytes of
// path from offset off, in one pass, in chunks of at most readChunk bytes
// written to w; no byte of the final chunk is written before the CRC-64 is
// known to match and the file to be total bytes long (total < 0: any
// length). It returns errLost if the file will not open, errCorrupt on a
// mismatch, or w's error.
func readFile(path string, off, size int64, crc uint64, total int64, w io.Writer) (n int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, errLost
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil || off < 0 || size < 0 {
		return 0, errCorrupt // a negative size vouches for no file
	}
	whole, r := total < 0 || fi.Size() == total, io.NewSectionReader(f, off, size)
	pooled := readBufs.Get().(*[readChunk]byte)
	defer readBufs.Put(pooled)
	buf := pooled[:]
	var sum uint64
	for left := size; ; left -= readChunk {
		chunk, final := buf[:min(left, readChunk)], left <= readChunk
		k, _ := io.ReadFull(r, chunk)
		sum = crc64.Update(sum, crcTable, chunk[:k])
		if k < len(chunk) || final && (sum != crc || !whole) {
			return n, errCorrupt
		}
		k, err = w.Write(chunk)
		if n += int64(k); err != nil || final {
			return n, err
		}
	}
}

// readRegion reads region k of the record of m through readFile.
func (s *Store) readRegion(m *Meta, k int, w io.Writer) (int64, error) {
	e := m.extents()[k]
	return readFile(s.objectPath(m.Hash), e.off, e.size, e.crc, entryBytes(m), w)
}

// quarantineLocked moves the record file at path aside instead of deleting
// it, so corrupt or unvouched-for data remains inspectable but is never
// served.
func (s *Store) quarantineLocked(path, hash string) {
	dst := filepath.Join(s.dir, "quarantine", hash+".sph")
	if os.MkdirAll(filepath.Dir(dst), 0o755) != nil || os.Rename(path, dst) != nil {
		_ = os.Remove(path)
	}
	s.counts.Quarantined++
}

// entryBytes is everything the entry holds on disk, the sum of its regions:
// the unit the MaxBytes cap and the total accounting work in.
func entryBytes(m *Meta) int64 {
	e := m.extents()[len(regions)-1]
	return e.off + e.size
}

// removeLocked evicts an entry and deletes its record.
func (s *Store) removeLocked(hash string) {
	if m, ok := s.entries[hash]; ok {
		s.total -= entryBytes(m)
		delete(s.entries, hash)
		s.dirty = append(s.dirty, hash)
	}
	_ = os.Remove(s.objectPath(hash))
}

// evictLocked applies the TTL then the size cap: expired entries go first,
// then least-recently-used ones until the total fits MaxBytes.
func (s *Store) evictLocked(now time.Time) {
	if s.opts.TTL > 0 {
		cutoff := now.Add(-s.opts.TTL).Unix()
		for hash, m := range s.entries {
			if m.LastUsed < cutoff {
				s.removeLocked(hash)
				s.counts.Evictions++
			}
		}
	}
	if s.opts.MaxBytes <= 0 || s.total <= s.opts.MaxBytes {
		return
	}
	order := make([]*Meta, 0, len(s.entries))
	for _, m := range s.entries {
		order = append(order, m)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		return a.LastUsed < b.LastUsed || a.LastUsed == b.LastUsed && a.Hash < b.Hash
	})
	for _, m := range order {
		if s.total <= s.opts.MaxBytes {
			break
		}
		s.removeLocked(m.Hash)
		s.counts.Evictions++
	}
}

// ArtifactError names what a write could not put on disk, and why: the
// "record" (stored whole or not at all) or the "index" entry recording it.
type ArtifactError struct {
	Artifact string
	Err      error
}

// PutResult stores a whole result under meta.Hash as one record: snapshot,
// report and telemetry track (nil means none), then one eviction pass and
// one index.log append. kept reports whether the entry is live afterwards:
// under a tight cap the pass may evict the record it just wrote, and a
// caller holding the bytes in memory should then keep them. errs lists what
// could not be written; a failed record write stores nothing and leaves any
// earlier entry of the hash as it was.
func (s *Store) PutResult(meta Meta, snapshot, report, telemetry []byte) (kept bool, errs []ArtifactError) {
	return s.write(meta.Hash, &meta, [len(regions)][]byte{snapshot, report, telemetry}, nil)
}

// Put stores snapshot under meta.Hash with no attachments, replacing any
// existing entry.
func (s *Store) Put(meta Meta, snapshot []byte) error {
	return firstErr(s.PutResult(meta, snapshot, nil, nil))
}

// PutReport rewrites an existing entry's record with report attached.
func (s *Store) PutReport(hash string, report []byte) error {
	return firstErr(s.write(hash, nil, [len(regions)][]byte{regionReport: report}, nil))
}

// PutTelemetry rewrites an existing entry's record with track attached.
func (s *Store) PutTelemetry(hash string, track []byte) error {
	return firstErr(s.write(hash, nil, [len(regions)][]byte{regionTelemetry: track}, nil))
}

// firstErr is a write's outcome for a caller that wrote one artifact.
func firstErr(_ bool, errs []ArtifactError) error {
	if len(errs) == 0 {
		return nil
	}
	return errs[0].Err
}

// write is the one write path. With meta non-nil the record is parts and
// replaces any entry of hash. With meta nil it amends the entry of hash (if
// it still records base's regions, base non-nil): a nil part is read back
// from the record, dropped if it fails its check. Under a reservation of
// hash the temp file is filled with the lock released; rename, entry,
// eviction pass and journal append share one hold, so none is seen alone.
func (s *Store) write(hash string, meta *Meta, parts [len(regions)][]byte, base *Meta) (kept bool, errs []ArtifactError) {
	if hash == "" {
		return false, []ArtifactError{{"record", errors.New("store: write with empty hash")}}
	}
	s.mu.Lock()
	for s.writing[hash] {
		s.idle.Wait()
	}
	old := s.entries[hash]
	if meta == nil && (old == nil || base != nil && old.extents() != base.extents()) {
		s.mu.Unlock()
		return false, []ArtifactError{{"record", fmt.Errorf("store: no entry %s to amend", hash)}}
	}
	s.writing[hash] = true // old's regions change only under this reservation
	s.mu.Unlock()

	var err error
	var crcs [len(regions)]uint64
	for k := range regions {
		if meta == nil && parts[k] == nil && err == nil {
			var b bytes.Buffer
			if _, rerr := s.readRegion(old, k, &b); rerr == nil {
				parts[k] = b.Bytes()
			} else if k == regionSnapshot {
				err = fmt.Errorf("store: entry %s: %w", hash, rerr)
			}
		}
		crcs[k] = crc64.Checksum(parts[k], crcTable)
	}
	path := s.objectPath(hash)
	if err == nil {
		err = writeTemp(path, parts[:]...)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.writing, hash)
	s.idle.Broadcast()
	if err == nil && meta == nil && s.entries[hash] != old {
		err = fmt.Errorf("store: entry %s removed while being amended", hash)
	}
	if err == nil {
		err = os.Rename(path+".tmp", path)
	}
	if err != nil {
		_ = os.Remove(path + ".tmp")
		return false, []ArtifactError{{"record", err}}
	}
	m := old
	if meta != nil {
		m = meta
		m.CreatedAt = s.opts.Now().Unix()
		m.LastUsed = m.CreatedAt
		s.counts.Puts++
	}
	if cur := s.entries[hash]; cur != nil {
		s.total -= entryBytes(cur)
	}
	for k := range regions {
		size, crc := regions[k](m)
		*size, *crc = int64(len(parts[k])), crcs[k]
	}
	s.entries[hash] = m
	s.total += entryBytes(m)
	s.dirty = append(s.dirty, hash)
	s.evictLocked(s.opts.Now())
	if err := s.journalLocked(); err != nil {
		errs = append(errs, ArtifactError{"index", err})
	}
	return s.entries[hash] == m, errs
}

// Get returns the entry's metadata and marks it used (refreshing its LRU and
// TTL position). An expired entry is evicted and reported as a miss.
func (s *Store) Get(hash string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.touchLocked(hash)
	if !ok {
		s.counts.Misses++
		return Meta{}, false
	}
	s.counts.Hits++
	return *m, true
}

// touchLocked looks up hash, applying TTL expiry and refreshing LastUsed.
// The refresh is in-memory only — a disk write on every read would put I/O
// on the hot lookup path; the new timestamp is persisted by the entry's next
// record or the next compaction. Across a crash the LRU/TTL order is
// therefore approximate, never the served bytes.
func (s *Store) touchLocked(hash string) (*Meta, bool) {
	m, ok := s.entries[hash]
	if !ok {
		return nil, false
	}
	now := s.opts.Now()
	if s.opts.TTL > 0 && m.LastUsed < now.Add(-s.opts.TTL).Unix() {
		s.removeLocked(hash)
		s.counts.Evictions++
		_ = s.journalLocked() // a lost record costs a re-eviction at the next Open
		return nil, false
	}
	m.LastUsed = now.Unix()
	return m, true
}

// WriteObject writes the snapshot of m, an entry as Get returned it, to w
// through readFile. A failed read is a miss: an entry still recording m's
// regions is quarantined (corrupt) or forgotten (lost) and journaled; one a
// write replaced meanwhile is left alone.
func (s *Store) WriteObject(m Meta, w io.Writer) (int64, error) {
	n, err := s.readRegion(&m, regionSnapshot, w)
	if err != errCorrupt && err != errLost {
		return n, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts.Hits, s.counts.Misses = s.counts.Hits-1, s.counts.Misses+1 // Get counted a hit
	if e := s.entries[m.Hash]; e != nil && e.extents() == m.extents() {
		if err == errCorrupt {
			s.quarantineLocked(s.objectPath(m.Hash), m.Hash)
		}
		s.removeLocked(m.Hash)
		_ = s.journalLocked() // a lost record leaves an entry the next Open drops again
	}
	return n, fmt.Errorf("store: entry %s: %w", m.Hash, err)
}

// ReadObject is Get, then WriteObject into one buffer: the verified bytes.
func (s *Store) ReadObject(hash string) ([]byte, Meta, error) {
	m, ok := s.Get(hash)
	if !ok {
		return nil, Meta{}, fmt.Errorf("store: no entry %s", hash)
	}
	b := bytes.NewBuffer(make([]byte, 0, m.Size))
	if _, err := s.WriteObject(m, b); err != nil {
		return nil, Meta{}, err
	}
	return b.Bytes(), m, nil
}

// Sweep applies the TTL + size eviction policy now — Put and Open already do;
// Sweep is for owners without traffic — and compacts the log into index.json.
func (s *Store) Sweep() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictLocked(s.opts.Now())
	_ = s.saveIndexLocked() // the log still holds what the index now lacks
}

// ReportHashes lists, sorted, every live entry with a verification report:
// the analytics query, which counts no hit or miss and refreshes no LRU
// position, so enumerating the corpus leaves the serving eviction order be.
func (s *Store) ReportHashes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for hash, m := range s.entries {
		if m.ReportSize > 0 {
			out = append(out, hash)
		}
	}
	sort.Strings(out)
	return out
}

// readAttachment returns region k of the entry's record, read and verified
// outside the lock. A region that fails its check is reported absent, never
// served wrong, and dropped from the record unless a write has replaced the
// entry since the read.
func (s *Store) readAttachment(k int, hash string) ([]byte, bool) {
	var seen Meta
	s.mu.Lock()
	if m := s.entries[hash]; m != nil {
		seen = *m
	}
	s.mu.Unlock()
	size := seen.extents()[k].size
	if size == 0 {
		return nil, false
	}
	b := bytes.NewBuffer(make([]byte, 0, size))
	if _, err := s.readRegion(&seen, k, b); err == nil {
		return b.Bytes(), true
	}
	var drop [len(regions)][]byte
	drop[k] = []byte{}
	s.write(hash, nil, drop, &seen) // a failed drop leaves a region the next Open drops again
	return nil, false
}

// ReadReport returns the entry's verification report bytes.
func (s *Store) ReadReport(hash string) ([]byte, bool) {
	return s.readAttachment(regionReport, hash)
}

// ReadTelemetry returns the entry's telemetry track bytes.
func (s *Store) ReadTelemetry(hash string) ([]byte, bool) {
	return s.readAttachment(regionTelemetry, hash)
}

// Stats is the GET /v1/store metrics snapshot.
type Stats struct {
	// Entries counts live entries; Bytes is their total on-disk footprint
	// (every region of every record — the number the MaxBytes cap governs).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// ObjectBytes, ReportBytes and TelemetryBytes break Bytes down by
	// region: snapshots, reports, tracks.
	ObjectBytes    int64 `json:"objectBytes"`
	ReportBytes    int64 `json:"reportBytes"`
	TelemetryBytes int64 `json:"telemetryBytes"`
	// Reports and Telemetry count entries with that attachment.
	Reports   int `json:"reports"`
	Telemetry int `json:"telemetry"`
	// Hits and Misses count result lookups since this instance opened;
	// HitRate is their ratio (0 with no traffic).
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hitRate"`
	// Quarantined counts objects moved aside as corrupt or unvouched-for.
	Quarantined int `json:"quarantined"`
	// Puts and Evictions count writes and TTL/LRU policy removals since
	// this instance opened.
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
}

// Stats returns the current metrics snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.counts
	st.Entries, st.Bytes = len(s.entries), s.total
	for _, m := range s.entries {
		st.ObjectBytes += m.Size
		st.ReportBytes += m.ReportSize
		st.TelemetryBytes += m.TelemetrySize
		st.Reports += int(min(m.ReportSize, 1))
		st.Telemetry += int(min(m.TelemetrySize, 1))
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}
