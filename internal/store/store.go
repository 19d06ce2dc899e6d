// Package store is the persistent, content-addressed result store of the
// simulation service: completed results keyed by canonical spec hash
// (scenario.Spec.Hash), appended to pack files, read back in one
// CRC-verified pass outside the lock (readFile), and bounded by a combined
// TTL + size-capped LRU eviction policy. A restart serves prior results as
// cache hits; a record that fails its CRC is quarantined, never served.
//
// A stored result is one record: snapshot, report and telemetry track back
// to back at the pack and offset its entry records, each region checked
// against the size and CRC recorded. A write reserves its range at the end
// of the active pack under the lock and fills it with the lock released;
// the entry, one eviction pass and one journal append share the next hold.
// No write creates a file but a new pack's first. A removal unlinks nothing:
// its bytes are dead. The active pack rolls at packLimit; a sealed pack with
// no live record and no write in flight goes once the journal says so; Sweep
// and Open re-append the live records of each sealed pack under half live.
// After either, the packs hold at most twice the live bytes (Stats.Bytes,
// what MaxBytes caps) plus one pack.
//
// The index is index.json plus a journal, index.log (journal.go), so a
// write's cost does not depend on how many results the store holds; Open,
// Sweep and a log past twice the live entries plus compactSlack records
// rewrite index.json and delete the log. Open replays the log up to its
// first bad frame, checks every entry against its pack, and starts a new
// active pack: bytes a killed write left are dead, named by no entry.
// Nothing is fsynced: it survives a killed process, not a power cut.
//
// Faults: a record write that fails (packs/ not a directory, a full disk, a
// short write) stores nothing and leaves the hash's earlier entry be; a
// snapshot that fails its CRC is quarantined with its entry, a failing
// attachment dropped alone; a pack that is gone is a miss.
//
//	index.json       entry metadata as of the last compaction
//	index.log        CRC-framed put/del records since then
//	packs/<n>.pack   records back to back, each the snapshot (part binary
//	                 checkpoint format), then the report and the track
//	quarantine/      copies of corrupt records (<hash>.sph); packs no entry
//	                 names when index.json could not be read
//
// Open reads only this layout: a pack no entry names is deleted, and every
// file of an older one-record-a-file objects/ layout is quarantined, its
// entry dropped as lost, and reports/, telemetry/ and profiles/ removed.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Meta describes one stored result. The identifying fields (Particles,
// Steps, SimTime, Checksum) are supplied by the caller at Put time; the
// bookkeeping fields (Size, CRC, CreatedAt, LastUsed, Pack, Off) are owned
// by the store.
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
	// Pack and Off locate the record: packs/<Pack>.pack from byte Off.
	// Packs count from 1, so an entry of an older layout names none.
	Pack int64 `json:"pack,omitempty"`
	Off  int64 `json:"off,omitempty"`
}

const (
	regionSnapshot = iota
	regionReport
	regionTelemetry
)

// regions are the parts of a record, each served byte for byte or not at
// all: back to back, in this order, they are the record. Each is where an
// entry records that region's size and CRC.
var regions = [...]func(*Meta) (size *int64, crc *uint64){
	regionSnapshot:  func(m *Meta) (*int64, *uint64) { return &m.Size, &m.CRC },
	regionReport:    func(m *Meta) (*int64, *uint64) { return &m.ReportSize, &m.ReportCRC },
	regionTelemetry: func(m *Meta) (*int64, *uint64) { return &m.TelemetrySize, &m.TelemetryCRC },
}

// extent is where a region lies, pack and offset, and its CRC.
type extent struct {
	pack, off, size int64
	crc             uint64
}

// extents locates every region of m's record; two entries with equal
// extents record the same regions in the same place.
func (m *Meta) extents() (e [len(regions)]extent) {
	off := m.Off
	for k := range regions {
		size, crc := regions[k](m)
		e[k], off = extent{m.Pack, off, *size, *crc}, off+*size
	}
	return e
}

// Options bounds the store.
type Options struct {
	// TTL evicts entries idle (not Put or read) for longer than this;
	// 0 disables expiry.
	TTL time.Duration
	// MaxBytes caps the live record bytes — every region of every entry's
	// record, not the dead bytes beside them in the packs; least-recently-
	// used entries are evicted to stay under it. 0 disables the cap.
	MaxBytes int64
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

// packLimit is the size past which the active pack takes no further record:
// the next write starts a new one (a larger record gets a pack of its own).
const packLimit = 4 << 20

// pack is one pack file's bookkeeping: the bytes reserved in it, the live
// bytes and records among them, and the writes still filling their range.
type pack struct {
	size, live   int64
	refs, writes int
}

// Store is a disk-backed content-addressed result store. All methods are
// safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	entries map[string]*Meta // guarded by mu
	total   int64            // the live record bytes, every pack's; guarded by mu
	// writing reserves a hash while its record is written outside the lock:
	// a second writer of the hash waits on idle, broadcast as one ends.
	writing map[string]bool // guarded by mu
	idle    *sync.Cond
	// counts holds the since-open counters of Stats (Hits, Misses,
	// Quarantined, Puts, Evictions); Stats derives its other fields.
	counts Stats // guarded by mu
	// packs holds every pack file by number; new records go to active.
	packs  map[int64]*pack // guarded by mu
	active int64           // guarded by mu

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
// records of index.log on top of it. Every entry is re-verified region by
// region (reconcile), failing attachments dropped by a rewrite; then Open
// sweeps — so a freshly opened store is consistent, within budget, and has
// no log.
func Open(dir string, opts Options) (*Store, error) {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	s := &Store{dir: dir, opts: opts, entries: map[string]*Meta{}, writing: map[string]bool{}, packs: map[int64]*pack{}}
	s.idle = sync.NewCond(&s.mu)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	// A missing or corrupt index is recoverable: start empty (the log means
	// nothing without it); the packs, unverifiable, go to quarantine below.
	var idx indexFile
	indexed := true
	if b, err := os.ReadFile(s.indexPath()); err != nil || json.Unmarshal(b, &idx) != nil {
		idx, indexed = indexFile{}, false
	} else if log, err := os.ReadFile(s.logPath()); err == nil {
		if idx.Entries == nil {
			idx.Entries = map[string]*Meta{}
		}
		replay(log, idx.Entries)
	}

	packs, _ := filepath.Glob(filepath.Join(s.dir, "packs", "*.pack"))
	for _, path := range packs {
		n, err := strconv.ParseInt(strings.TrimSuffix(filepath.Base(path), ".pack"), 10, 64)
		if fi, serr := os.Stat(path); err == nil && serr == nil && n > 0 && s.packPath(n) == path {
			s.packs[n] = &pack{size: fi.Size()} // a file of another name is no pack a write made
			s.active = max(s.active, n)
		}
	}
	var damaged []string
	for hash, m := range idx.Entries {
		if m == nil || filepath.Base(hash) != hash || s.packs[m.Pack] == nil {
			continue // vouches for no record, is no key a write takes, or its pack is gone
		}
		m.Hash = hash
		dropped, err := s.reconcile(m)
		if err == errCorrupt {
			s.quarantineLocked(s.packPath(m.Pack), m.Off, entryBytes(m), hash+".sph")
		}
		if err != nil {
			continue
		}
		if dropped {
			damaged = append(damaged, hash)
		}
		s.entries[hash] = m
		s.holdLocked(m, 1)
	}
	for n, p := range s.packs {
		if path := s.packPath(n); p.refs == 0 {
			if !indexed {
				s.quarantineLocked(path, 0, math.MaxInt64, filepath.Base(path))
			}
			_ = os.Remove(path)
			delete(s.packs, n)
		}
	}
	s.active++
	s.packs[s.active] = &pack{}

	// Every file of the one-record-a-file layouts is an older build's, and
	// so is what they kept beside the records: attachment files, and CPU
	// profiles nothing read back.
	for _, glob := range []string{"*.sph", "*/*.sph"} {
		old, _ := filepath.Glob(filepath.Join(s.dir, "objects", glob))
		for _, path := range old {
			s.quarantineLocked(path, 0, math.MaxInt64, filepath.Base(path))
		}
	}
	for _, old := range []string{"objects", "reports", "telemetry", "profiles"} {
		_ = os.RemoveAll(filepath.Join(s.dir, old))
	}
	_ = os.Remove(s.indexPath() + ".tmp") // a compaction a killed process never renamed

	for _, hash := range damaged {
		s.write(hash, nil, [len(regions)][]byte{}, nil) // drops what fails again; failed, it is left to the next Open
	}
	if err := s.sweep(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.json") }
func (s *Store) logPath() string   { return filepath.Join(s.dir, "index.log") }

// packPath is where pack n lives.
func (s *Store) packPath(n int64) string {
	return filepath.Join(s.dir, "packs", strconv.FormatInt(n, 10)+".pack")
}

// reconcile is Open's check of the entry m against its pack: its extents
// must be ones a write records and its snapshot must match, or the entry
// goes (the error says how). dropped reports an attachment region that fails:
// a rewrite of the record drops it.
func (s *Store) reconcile(m *Meta) (dropped bool, err error) {
	for _, e := range m.extents() {
		if e.size < 0 || e.off+e.size < e.off {
			return false, errCorrupt
		}
	}
	for k := range regions {
		if _, err := s.readRegion(m, k, io.Discard); err != nil && k == regionSnapshot {
			return false, err
		} else if err != nil {
			dropped = true
		}
	}
	return dropped, nil
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
	s.reapLocked()
	return nil
}

// writeAtomic replaces path with data: its temp file, <path>.tmp, then a
// rename, so a reader sees the old bytes or the new ones, never a torn file.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // a part-written temp file is bytes no entry accounts for
		return fmt.Errorf("store: writing %s: %w", tmp, err)
	}
	return nil
}

// writeAt is how a write fills its reservation, one region at a time: a
// variable, so a test can hold a write in flight or cut it short.
var writeAt = (*os.File).WriteAt

// fill writes parts back to back into the pack at path from off. Only a
// new pack's first write creates its file (and packs/, if that is missing).
func fill(path string, off int64, parts [][]byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if os.IsNotExist(err) && os.MkdirAll(filepath.Dir(path), 0o755) == nil {
		f, err = os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	}
	for i := 0; err == nil && i < len(parts); i++ {
		_, err = writeAt(f, parts[i], off)
		off += int64(len(parts[i]))
	}
	if f != nil {
		err = errors.Join(err, f.Close())
	}
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	return nil
}

// readChunk bounds the bytes a read holds at once.
const readChunk = 64 << 10

// readBufs recycles readFile's chunk buffers, so a read allocates none.
var readBufs = sync.Pool{New: func() any { return new([readChunk]byte) }}

// readFile's verdicts on a region that cannot be served.
var errCorrupt, errLost = errors.New("failed CRC verification"), errors.New("pack file missing")

// readFile is the store's one read, run without s.mu: the size bytes of
// path from offset off, in one pass, in chunks of at most readChunk bytes
// written to w; no byte of the final chunk is written before the CRC-64 is
// known to match, and the file must hold every byte of the range. It
// returns errLost if the file will not open, errCorrupt on a mismatch or a
// file too short, or w's error.
func readFile(path string, off, size int64, crc uint64, w io.Writer) (n int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, errLost
	}
	defer f.Close()
	if off < 0 || size < 0 {
		return 0, errCorrupt // a negative extent vouches for no bytes
	}
	r := io.NewSectionReader(f, off, size)
	pooled := readBufs.Get().(*[readChunk]byte)
	defer readBufs.Put(pooled)
	buf := pooled[:]
	var sum uint64
	for left := size; ; left -= readChunk {
		chunk, final := buf[:min(left, readChunk)], left <= readChunk
		k, _ := io.ReadFull(r, chunk)
		sum = crc64.Update(sum, crcTable, chunk[:k])
		if k < len(chunk) || final && sum != crc {
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
	return readFile(s.packPath(e.pack), e.off, e.size, e.crc, w)
}

// quarantineLocked copies n bytes of the file at path from off, as many as
// it holds, to quarantine/name: data no entry may serve stays inspectable.
func (s *Store) quarantineLocked(path string, off, n int64, name string) {
	s.counts.Quarantined++
	src, err := os.Open(path)
	defer src.Close() // nil-safe
	dst := filepath.Join(s.dir, "quarantine", name)
	if err == nil && os.MkdirAll(filepath.Dir(dst), 0o755) == nil {
		if f, err := os.Create(dst); err == nil {
			_, _ = io.Copy(f, io.NewSectionReader(src, off, n))
			_ = f.Close()
		}
	}
}

// entryBytes is everything the entry holds on disk, the sum of its regions:
// the unit the MaxBytes cap and the total accounting work in.
func entryBytes(m *Meta) int64 {
	e := m.extents()[len(regions)-1]
	return e.off + e.size - m.Off
}

// reapLocked deletes every sealed pack with no live record and no write in
// flight. It runs only once the journal (or index.json) holds the state
// that emptied the pack, so no index a restart reads names a deleted pack.
func (s *Store) reapLocked() {
	for n, p := range s.packs {
		if n != s.active && p.refs == 0 && p.writes == 0 {
			_ = os.Remove(s.packPath(n))
			delete(s.packs, n)
		}
	}
}

// holdLocked counts m's record in its pack and the total: live for d = 1,
// dead for d = -1.
func (s *Store) holdLocked(m *Meta, d int) {
	p, n := s.packs[m.Pack], int64(d)*entryBytes(m)
	p.live, p.refs, s.total = p.live+n, p.refs+d, s.total+n
}

// removeLocked evicts an entry; its record's bytes are dead from now on.
func (s *Store) removeLocked(hash string) {
	if m, ok := s.entries[hash]; ok {
		s.holdLocked(m, -1)
		delete(s.entries, hash)
		s.dirty = append(s.dirty, hash)
	}
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
// report and telemetry track (nil means none), then one eviction pass (which,
// under a tight cap, may evict the record just written) and one index.log
// append. It lists what could not be written; a failed record write stores
// nothing and leaves any earlier entry of the hash as it was.
func (s *Store) PutResult(meta Meta, snapshot, report, telemetry []byte) []ArtifactError {
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
func firstErr(errs []ArtifactError) error {
	if len(errs) == 0 {
		return nil
	}
	return errs[0].Err
}

// write is the one write path. With meta non-nil the record is parts and
// replaces any entry of hash. With meta nil it amends the entry of hash (if
// it is still base's record, base non-nil): a nil part is read back from
// the record, dropped if it fails its check. Under a reservation of hash it
// takes the record's range at the end of the active pack, first starting a
// new pack if the active one holds records and the record would take it past
// packLimit, and fills it with the lock released; entry, eviction pass and
// journal append share one hold, so none is seen alone.
func (s *Store) write(hash string, meta *Meta, parts [len(regions)][]byte, base *Meta) (errs []ArtifactError) {
	if filepath.Base(hash) != hash {
		return []ArtifactError{{"record", fmt.Errorf("store: write with hash %q", hash)}}
	}
	s.mu.Lock()
	for s.writing[hash] {
		s.idle.Wait()
	}
	old := s.entries[hash]
	if meta == nil && (old == nil || base != nil && old.extents() != base.extents()) {
		s.mu.Unlock()
		return []ArtifactError{{"record", fmt.Errorf("store: no entry %s to amend", hash)}}
	}
	s.writing[hash] = true // old's regions change only under this reservation
	s.mu.Unlock()

	var err error
	var crcs [len(regions)]uint64
	var size int64
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
		size += int64(len(parts[k]))
	}
	s.mu.Lock()
	p := s.packs[s.active]
	if p.size > 0 && p.size+size > packLimit { // a new pack takes the record
		s.active++
		p = &pack{}
		s.packs[s.active] = p
	}
	n, off := s.active, p.size
	p.size += size // dead bytes if err is set already
	p.writes++
	s.mu.Unlock()
	if err == nil {
		err = fill(s.packPath(n), off, parts[:])
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	p.writes--
	delete(s.writing, hash)
	s.idle.Broadcast()
	if err == nil && meta == nil && s.entries[hash] != old {
		err = fmt.Errorf("store: entry %s removed while being amended", hash)
	}
	if err != nil {
		_ = s.journalLocked() // nothing to journal, but a pack this write kept may go
		return []ArtifactError{{"record", err}}
	}
	m := old
	if meta != nil {
		m = meta
		m.CreatedAt = s.opts.Now().Unix()
		m.LastUsed = m.CreatedAt
		s.counts.Puts++
	}
	if cur := s.entries[hash]; cur != nil {
		s.holdLocked(cur, -1)
	}
	for k := range regions {
		size, crc := regions[k](m)
		*size, *crc = int64(len(parts[k])), crcs[k]
	}
	m.Pack, m.Off = n, off
	s.entries[hash] = m
	s.holdLocked(m, 1)
	s.dirty = append(s.dirty, hash)
	s.evictLocked(s.opts.Now())
	if err := s.journalLocked(); err != nil {
		errs = append(errs, ArtifactError{"index", err})
	}
	return errs
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
// record is quarantined (corrupt) or forgotten (lost) and journaled; one a
// write replaced or moved meanwhile is left alone.
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
			s.quarantineLocked(s.packPath(e.Pack), e.Off, entryBytes(e), e.Hash+".sph")
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

// Sweep applies the TTL + size eviction policy now — Put and Open already
// do; Sweep is for owners without traffic — then re-appends, through the
// write path, the live records of each sealed pack under half live with no
// write in flight (twice: the first pass's moves may seal one), and
// rewrites index.json.
func (s *Store) Sweep() { _ = s.sweep() }

func (s *Store) sweep() error {
	s.mu.Lock()
	s.evictLocked(s.opts.Now())
	s.mu.Unlock()
	for range 2 {
		var moves []Meta
		s.mu.Lock()
		for _, m := range s.entries {
			if p := s.packs[m.Pack]; m.Pack != s.active && p.writes == 0 && 2*p.live < p.size {
				moves = append(moves, *m)
			}
		}
		s.mu.Unlock()
		for i := range moves {
			s.write(moves[i].Hash, nil, [len(regions)][]byte{}, &moves[i]) // a failed move leaves the record where it was
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saveIndexLocked() // a failure leaves the log holding what the index lacks
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
	// Entries counts live entries; Bytes is their records' total, every
	// region (what MaxBytes caps; after a Sweep the packs hold at most twice
	// it plus one pack).
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
	// Quarantined counts records and files moved aside as corrupt or
	// unvouched-for.
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
