// Package store is the persistent, content-addressed result store of the
// simulation service: completed snapshots keyed by canonical spec hash
// (scenario.Spec.Hash), written atomically (temp file + rename), read back
// in one CRC-verified pass outside the lock (readFile), and bounded by a
// combined TTL + size-capped LRU eviction policy. A server restart reopens
// the same directory and serves prior results as cache hits; entries whose
// bytes no longer match their recorded CRC are quarantined, not trusted and
// not fatal — the store degrades to recomputation, never to corrupt data.
//
// A stored result is one record — the snapshot plus its report and telemetry
// attachments — and PutResult writes it as one, under one lock hold: each
// file, one eviction pass, one journal append. Reads lock for the lookup only.
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
//	objects/ab/abcd….sph   snapshot payloads (part binary checkpoint format),
//	                       sharded by the first two hash characters; a flat
//	                       objects/abcd….sph layout migrates on Open
//	reports/<hash>.json    verification reports
//	telemetry/<hash>.json  step-telemetry tracks
//	quarantine/            corrupt or unindexed objects moved aside on detection
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
	// Size is the object file size in bytes.
	Size int64 `json:"size"`
	// CRC is the CRC-64/ECMA of the whole object file; reads verify
	// against it and quarantine on mismatch.
	CRC uint64 `json:"crc"`
	// CreatedAt and LastUsed are unix seconds; LastUsed drives both the
	// TTL (idle expiry) and the LRU eviction order.
	CreatedAt int64 `json:"createdAt"`
	LastUsed  int64 `json:"lastUsed"`
	// The size and CRC of the entry's report and telemetry attachments
	// (see attachment); size zero means none.
	ReportSize    int64  `json:"reportSize,omitempty"`
	ReportCRC     uint64 `json:"reportCRC,omitempty"`
	TelemetrySize int64  `json:"telemetrySize,omitempty"`
	TelemetryCRC  uint64 `json:"telemetryCRC,omitempty"`
}

// attachment is one kind of file kept beside a snapshot under the same
// hash: written with it or after it, served byte for byte (including across
// restarts) or not at all, evicted with its entry, and counted against
// MaxBytes like every other byte the store owns. All attachment handling
// ranges over the attachments table; a kind is one row there plus its
// size/CRC pair in Meta.
type attachment struct {
	// name is the artifact's name in errors; the file is <dir>/<hash><ext>.
	name, dir, ext string
	// slot is where an entry records this kind's size and CRC.
	slot func(*Meta) (size *int64, crc *uint64)
}

const (
	kindReport = iota
	kindTelemetry
)

var attachments = [...]attachment{
	kindReport: {"report", "reports", ".json",
		func(m *Meta) (*int64, *uint64) { return &m.ReportSize, &m.ReportCRC }},
	kindTelemetry: {"telemetry", "telemetry", ".json",
		func(m *Meta) (*int64, *uint64) { return &m.TelemetrySize, &m.TelemetryCRC }},
}

// Options bounds the store.
type Options struct {
	// TTL evicts entries idle (not Put or read) for longer than this;
	// 0 disables expiry.
	TTL time.Duration
	// MaxBytes caps the total bytes on disk — objects plus report and
	// telemetry attachments; least-recently-used entries are evicted to
	// stay under it. 0 disables the cap.
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
	total   int64            // sum of entry bytes: objects plus attachments; guarded by mu
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
// records of index.log on top of it. Every indexed object is re-verified
// against its recorded CRC: corrupt or missing-from-index files are moved to
// the quarantine directory and dropped, then the TTL and size policies are
// applied and the result compacted — so a freshly opened store is always
// consistent, within budget, and has no log.
func Open(dir string, opts Options) (*Store, error) {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	s := &Store{dir: dir, opts: opts, entries: map[string]*Meta{}}

	// Objects used to live flat at objects/<hash>.sph. Move each into its
	// shard directory before verification; the index records no paths, so
	// it is unchanged by the move. A file that cannot be moved is
	// quarantined, never left at the flat path, which the unindexed-object
	// sweep below does not scan.
	flat, _ := filepath.Glob(filepath.Join(s.objectsDir(), "*.sph"))
	for _, path := range flat {
		hash := fileHash(path, ".sph")
		dst := s.objectPath(hash)
		if dst != path && (os.MkdirAll(filepath.Dir(dst), 0o755) != nil || os.Rename(path, dst) != nil) {
			s.quarantineLocked(path, hash)
		}
	}

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
		if _, err := readFile(path, m.Size, m.CRC, io.Discard); err != nil {
			if err == errCorrupt {
				s.quarantineLocked(path, hash)
			}
			continue
		}
		m.Hash = hash
		// Attachments stay CRC-verified lazily on read; here just reconcile
		// the recorded sizes against the files on disk — a file the entry
		// does not record included — so the byte accounting backing the
		// MaxBytes cap starts truthful.
		for i := range attachments {
			k := &attachments[i]
			asize, acrc := k.slot(m)
			if fi, err := os.Stat(s.attachmentPath(k, hash)); err != nil || fi.Size() != *asize {
				_ = os.Remove(s.attachmentPath(k, hash))
				*asize, *acrc = 0, 0
			}
		}
		s.entries[hash] = m
		s.total += entryBytes(m)
	}

	// Objects on disk that the index does not vouch for are quarantined.
	sharded, _ := filepath.Glob(filepath.Join(s.objectsDir(), "*", "*.sph"))
	for _, path := range sharded {
		if hash := fileHash(path, ".sph"); s.entries[hash] == nil {
			s.quarantineLocked(path, hash)
		}
	}
	// Attachment files whose entry is gone (object lost, entry dropped
	// above) are stale: the attachment directories track the index.
	for i := range attachments {
		k := &attachments[i]
		stale, _ := filepath.Glob(s.attachmentPath(k, "*"))
		for _, path := range stale {
			if s.entries[fileHash(path, k.ext)] == nil {
				_ = os.Remove(path)
			}
		}
	}
	// Earlier builds kept a CPU profile per entry that nothing read back;
	// its index keys are dropped by the decode above, its files here.
	_ = os.RemoveAll(filepath.Join(s.dir, "profiles"))

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
func (s *Store) attachmentPath(k *attachment, h string) string {
	return filepath.Join(s.dir, k.dir, h+k.ext)
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

// writeAtomic replaces path with data: a temp file beside it, then a
// rename, so a reader sees the old bytes or the new ones, never a torn file.
// The directory is created only when the first attempt finds it missing.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, data, 0o644)
	if os.IsNotExist(err) && os.MkdirAll(filepath.Dir(path), 0o755) == nil {
		err = os.WriteFile(tmp, data, 0o644)
	}
	if err != nil {
		_ = os.Remove(tmp) // a part-written temp file is bytes no entry accounts for
		return fmt.Errorf("store: writing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return nil
}

// readChunk bounds the bytes a read holds at once.
const readChunk = 64 << 10

// readFile's verdicts on a file that cannot be served.
var errCorrupt, errLost = errors.New("failed CRC verification"), errors.New("object file missing")

// readFile is the store's one read, run without s.mu: path in one pass, in
// chunks of at most readChunk bytes written to w; no byte of the final chunk
// is written before size and CRC-64 are known to match. It returns errLost
// if the file will not open, errCorrupt on a mismatch, or w's error.
func readFile(path string, size int64, crc uint64, w io.Writer) (n int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, errLost
	}
	defer f.Close()
	buf := make([]byte, max(0, min(size, readChunk)+1))
	var sum uint64
	for left := size; left >= 0; left -= readChunk {
		chunk, final := buf[:min(left, readChunk)], left <= readChunk
		if final {
			chunk = buf[:left+1] // one byte past the recorded size: a longer file fills it
		}
		k, rerr := io.ReadFull(f, chunk)
		sum = crc64.Update(sum, crcTable, chunk[:k])
		if final && (int64(k) != left || sum != crc) || !final && rerr != nil {
			return n, errCorrupt
		}
		k, err = w.Write(chunk[:k])
		if n += int64(k); err != nil || final {
			return n, err
		}
	}
	return n, errCorrupt // a negative size vouches for no file
}

// quarantineLocked moves the object file at path (its shard location, or a
// flat-layout file that failed migration) aside instead of deleting it, so
// corrupt data remains inspectable but is never served.
func (s *Store) quarantineLocked(path, hash string) {
	dst := filepath.Join(s.dir, "quarantine", hash+".sph")
	if os.MkdirAll(filepath.Dir(dst), 0o755) != nil || os.Rename(path, dst) != nil {
		_ = os.Remove(path)
	}
	// A quarantined object always accompanies a dropped entry; its
	// attachments are meaningless without the snapshot they describe.
	s.removeAttachmentFiles(hash)
	s.counts.Quarantined++
}

// removeAttachmentFiles deletes whatever attachment files exist for hash.
func (s *Store) removeAttachmentFiles(hash string) {
	for i := range attachments {
		_ = os.Remove(s.attachmentPath(&attachments[i], hash))
	}
}

// entryBytes is everything the entry holds on disk, object plus
// attachments: the unit the MaxBytes cap and the total accounting work in.
func entryBytes(m *Meta) int64 {
	total := m.Size
	for i := range attachments {
		size, _ := attachments[i].slot(m)
		total += *size
	}
	return total
}

// removeLocked evicts an entry and deletes its object and attachment files.
func (s *Store) removeLocked(hash string) {
	if m, ok := s.entries[hash]; ok {
		s.total -= entryBytes(m)
		delete(s.entries, hash)
		s.dirty = append(s.dirty, hash)
	}
	_ = os.Remove(s.objectPath(hash))
	s.removeAttachmentFiles(hash)
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

// ArtifactError names one part of a result ("snapshot", "report",
// "telemetry", or the "index" that records them) a write could not put on
// disk, and why.
type ArtifactError struct {
	Artifact string
	Err      error
}

// PutResult stores a whole result under meta.Hash in one write: snapshot,
// report and telemetry track (nil means none), then one eviction pass and
// one index.log append. kept reports whether the entry is live afterwards: under
// a tight cap the pass may evict the record it just wrote, and a caller
// holding the bytes in memory should then keep them. errs lists what could
// not be written; a failed snapshot stops the write, a failed attachment
// leaves the rest of the record stored and served.
func (s *Store) PutResult(meta Meta, snapshot, report, telemetry []byte) (kept bool, errs []ArtifactError) {
	return s.write(meta.Hash, &meta, snapshot, [len(attachments)][]byte{kindReport: report, kindTelemetry: telemetry})
}

// Put stores snapshot under meta.Hash with no attachments, replacing any
// existing entry.
func (s *Store) Put(meta Meta, snapshot []byte) error {
	return firstErr(s.PutResult(meta, snapshot, nil, nil))
}

// PutReport attaches a verification report to an existing entry.
func (s *Store) PutReport(hash string, report []byte) error {
	return firstErr(s.write(hash, nil, nil, [len(attachments)][]byte{kindReport: report}))
}

// PutTelemetry attaches a step-telemetry track to an existing entry.
func (s *Store) PutTelemetry(hash string, track []byte) error {
	return firstErr(s.write(hash, nil, nil, [len(attachments)][]byte{kindTelemetry: track}))
}

// firstErr is a write's outcome for a caller that wrote one artifact.
func firstErr(_ bool, errs []ArtifactError) error {
	if len(errs) == 0 {
		return nil
	}
	return errs[0].Err
}

// write is the one write path. With meta non-nil, snapshot becomes the
// entry's object and the entry is replaced wholesale; each non-nil element
// of att is then written into that slot of the new (or, with meta nil, the
// existing) entry, its size and CRC recorded. The eviction pass and the
// journal append follow under the same lock hold, so the on-disk total never
// exceeds MaxBytes once write returns.
func (s *Store) write(hash string, meta *Meta, snapshot []byte, att [len(attachments)][]byte) (kept bool, errs []ArtifactError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.entries[hash]
	switch {
	case hash == "":
		return false, []ArtifactError{{"snapshot", fmt.Errorf("store: write with empty hash")}}
	case meta == nil && m == nil:
		return false, []ArtifactError{{"snapshot", fmt.Errorf("store: attachment for unknown entry %s", hash)}}
	case meta != nil:
		if err := writeAtomic(s.objectPath(hash), snapshot); err != nil {
			return false, []ArtifactError{{"snapshot", err}}
		}
		if m != nil {
			// The old attachments describe the replaced snapshot: their
			// files go too, or they would leak bytes invisible to the
			// accounting.
			s.total -= entryBytes(m)
			s.removeAttachmentFiles(hash)
		}
		// Bookkeeping is owned by the store: a fresh entry starts with no
		// attachments regardless of what the caller's Meta claims.
		m = meta
		for i := range attachments {
			size, crc := attachments[i].slot(m)
			*size, *crc = 0, 0
		}
		m.Size, m.CRC = int64(len(snapshot)), crc64.Checksum(snapshot, crcTable)
		m.CreatedAt = s.opts.Now().Unix()
		m.LastUsed = m.CreatedAt
		s.entries[hash] = m
		s.total += m.Size
		s.counts.Puts++
	}
	for i, data := range att {
		if data == nil {
			continue
		}
		k := &attachments[i]
		if err := writeAtomic(s.attachmentPath(k, hash), data); err != nil {
			errs = append(errs, ArtifactError{k.name, err})
			continue
		}
		size, crc := k.slot(m)
		s.total += int64(len(data)) - *size
		*size, *crc = int64(len(data)), crc64.Checksum(data, crcTable)
	}
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

// WriteObject writes the object of m, an entry as Get returned it, to w
// through readFile. A failed read is a miss: an entry still recording m's
// size and CRC is quarantined (corrupt) or forgotten (lost) and journaled;
// one a write replaced meanwhile is left alone.
func (s *Store) WriteObject(m Meta, w io.Writer) (int64, error) {
	path := s.objectPath(m.Hash)
	n, err := readFile(path, m.Size, m.CRC, w)
	if err != errCorrupt && err != errLost {
		return n, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts.Hits, s.counts.Misses = s.counts.Hits-1, s.counts.Misses+1 // Get counted a hit
	if e := s.entries[m.Hash]; e != nil && e.CRC == m.CRC && e.Size == m.Size {
		if err == errCorrupt {
			s.quarantineLocked(path, m.Hash)
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

// readAttachment returns the entry's attachment bytes of one kind, read and
// verified outside the lock. A missing or corrupt file is reported absent,
// never served wrong; if its slot still records the size and CRC the read
// checked against, the file is dropped and the slot zeroed.
func (s *Store) readAttachment(kind int, hash string) ([]byte, bool) {
	k, seen := &attachments[kind], Meta{}
	s.mu.Lock()
	m := s.entries[hash]
	if m != nil {
		seen = *m
	}
	s.mu.Unlock()
	size, crc := k.slot(&seen)
	if *size == 0 {
		return nil, false
	}
	path, b := s.attachmentPath(k, hash), bytes.NewBuffer(make([]byte, 0, *size))
	if _, err := readFile(path, *size, *crc, b); err == nil {
		return b.Bytes(), true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ps, pc := k.slot(m); s.entries[hash] == m && *ps == *size && *pc == *crc {
		_ = os.Remove(path)
		s.total -= *size
		*ps, *pc = 0, 0
		s.dirty = append(s.dirty, hash)
		_ = s.journalLocked() // a lost record leaves a slot the next Open clears again
	}
	return nil, false
}

// ReadReport returns the entry's verification report bytes.
func (s *Store) ReadReport(hash string) ([]byte, bool) {
	return s.readAttachment(kindReport, hash)
}

// ReadTelemetry returns the entry's telemetry track bytes.
func (s *Store) ReadTelemetry(hash string) ([]byte, bool) {
	return s.readAttachment(kindTelemetry, hash)
}

// Stats is the GET /v1/store metrics snapshot.
type Stats struct {
	// Entries counts live entries; Bytes is their total on-disk footprint
	// (objects plus attachments — the number the MaxBytes cap governs).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// ObjectBytes, ReportBytes and TelemetryBytes break Bytes down by what
	// the disk actually holds.
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
	perKind := [len(attachments)]struct {
		bytes *int64
		n     *int
	}{kindReport: {&st.ReportBytes, &st.Reports}, kindTelemetry: {&st.TelemetryBytes, &st.Telemetry}}
	for _, m := range s.entries {
		st.ObjectBytes += m.Size
		for i := range attachments {
			if size, _ := attachments[i].slot(m); *size > 0 {
				*perKind[i].n++
				*perKind[i].bytes += *size
			}
		}
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}
