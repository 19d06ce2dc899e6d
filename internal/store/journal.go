package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"os"
	"strconv"
)

// record is one index.log entry: the whole Meta of an entry as a mutation
// left it, or the hash of an entry a mutation removed — the state, not the
// change, so replay is last-writer-wins and replaying a log twice, or over an
// index that already absorbed it, changes nothing. On disk a record is one
// frame: the CRC-64/ECMA of the JSON as 16 hex digits, a space, the JSON, a
// newline.
type record struct {
	Put *Meta  `json:"put,omitempty"`
	Del string `json:"del,omitempty"`
}

// appendFrame appends rec's frame to dst.
func appendFrame(dst []byte, rec record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return dst, err
	}
	return fmt.Appendf(dst, "%016x %s\n", crc64.Checksum(payload, crcTable), payload), nil
}

// compactSlack is how many records beyond twice the live entries the log may
// hold: the append that passes it compacts, once per O(entries) appends.
const compactSlack = 1024

// journalLocked makes the changes to the dirty hashes durable: one frame per
// hash with the entry's present state, all in one append to index.log — before
// the compaction it may set off, so only after a failed append does index.json
// hold a state the log lacks (a stale put then fails the record's CRC at
// Open). What is journaled is durable, so the packs it emptied go then.
func (s *Store) journalLocked() error {
	if len(s.dirty) == 0 {
		s.reapLocked()
		return nil
	}
	if s.logTorn {
		return s.saveIndexLocked()
	}
	var frames []byte
	for _, hash := range s.dirty {
		rec := record{Del: hash}
		if m := s.entries[hash]; m != nil {
			rec = record{Put: m}
		}
		var err error
		if frames, err = appendFrame(frames, rec); err != nil {
			return err // dirty is kept: the next journal or compaction retries
		}
	}
	if s.log == nil {
		f, err := os.OpenFile(s.logPath(), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		s.log = f
	}
	if _, err := s.log.Write(frames); err != nil {
		s.logTorn = true // replay stops at a part-written frame: compact now, or at the next append
	}
	s.logRecords += len(s.dirty)
	if s.logTorn || s.logRecords > 2*len(s.entries)+compactSlack {
		return s.saveIndexLocked()
	}
	s.dirty = s.dirty[:0]
	s.reapLocked()
	return nil
}

// replay applies the frames of an index.log to entries, stopping at the
// first one that is torn, fails its CRC or is not a record: what follows a
// bad frame was written by a process that could not know it was bad.
func replay(log []byte, entries map[string]*Meta) {
	for len(log) > 0 {
		frame, rest, whole := bytes.Cut(log, []byte("\n"))
		if !whole || len(frame) < 17 || frame[16] != ' ' {
			return
		}
		sum, err := strconv.ParseUint(string(frame[:16]), 16, 64)
		var rec record
		if err != nil || sum != crc64.Checksum(frame[17:], crcTable) || json.Unmarshal(frame[17:], &rec) != nil {
			return
		}
		switch {
		case rec.Put != nil && rec.Put.Hash != "" && rec.Del == "":
			entries[rec.Put.Hash] = rec.Put
		case rec.Put == nil && rec.Del != "":
			delete(entries, rec.Del)
		default:
			return
		}
		log = rest
	}
}
