package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"snug/internal/cmp"
)

// Store is the sweep's checkpointed results store: an append-only file of
// JSON entries, one completed job per line, preceded by an optional header
// line fingerprinting the sweep configuration. Append-only makes
// checkpointing crash-safe — a write torn by an interrupt corrupts only the
// final line, which OpenStore tolerates (that job simply reruns on resume).
//
// Every line carries a CRC32 of its payload, so corruption that still
// parses as JSON (bit rot, a partial overwrite that happens to balance its
// braces) is detected instead of silently restored. A line without a CRC
// is corrupt too: a damaged "crc" key parses with an empty CRC, and
// loading such a line would skip the check its other damage needs.
type Store struct {
	path         string
	mu           sync.Mutex
	f            *os.File
	fingerprint  string
	results      map[string]cmp.RunResult
	quarantined  int // corrupt lines moved to <path>.quarantine by a salvage open
	syncEvery    int // fsync after every Nth Put (0 = never explicitly)
	putsUnsynced int
}

// storeEntry is one persisted line: either a header (Fingerprint set) or a
// completed job (Key/Result set). Result stays a raw message so the CRC is
// computed over the exact bytes on disk, immune to schema drift between
// the writing and reading release.
type storeEntry struct {
	Fingerprint string          `json:"fingerprint,omitempty"`
	Key         string          `json:"key,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	CRC         string          `json:"crc,omitempty"`
}

// entryCRC is the integrity checksum of one line's payload: CRC32 (IEEE)
// over the fingerprint, key and raw result bytes, NUL-separated so field
// boundaries cannot alias. The CRC field itself is excluded — verification
// recomputes from the raw bytes as stored, never from a re-marshal whose
// encoding could drift across releases.
func entryCRC(e storeEntry) string {
	h := crc32.NewIEEE()
	h.Write([]byte(e.Fingerprint))
	h.Write([]byte{0})
	h.Write([]byte(e.Key))
	h.Write([]byte{0})
	h.Write(e.Result)
	return fmt.Sprintf("%08x", h.Sum32())
}

// OpenStore opens (creating if absent) the results store at path and loads
// every previously completed result. An unterminated final line — the
// signature of an interrupted write — is truncated away so later appends
// start on a clean boundary; corruption of a newline-terminated line
// (unparseable JSON, a missing or mismatched CRC, a duplicate key) is an
// error, since a single-writer append can only tear the tail. Use
// OpenStoreSalvage to quarantine such lines instead of refusing.
func OpenStore(path string) (*Store, error) {
	return openStore(path, false)
}

// OpenStoreSalvage opens the store in salvage mode: corrupt interior lines
// (unparseable JSON, missing or mismatched CRCs, duplicate keys) are moved
// to <path>.quarantine — preserved byte-for-byte for forensics — and the main
// file is rewritten atomically with only the intact lines, so a resumed
// sweep reruns exactly the quarantined jobs. Quarantined reports how many
// lines were set aside.
func OpenStoreSalvage(path string) (*Store, error) {
	return openStore(path, true)
}

func openStore(path string, salvage bool) (*Store, error) {
	s := &Store{path: path, results: make(map[string]cmp.RunResult)}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("sweep: open checkpoint: %w", err)
	}
	keep := len(data) // length of the valid prefix to retain
	addNL := false    // last line parsed but lost its newline to a tear
	var good, bad [][]byte
	off, lineNo := 0, 0
	for off < len(data) {
		end, hasNL := len(data), false
		if nl := bytes.IndexByte(data[off:], '\n'); nl >= 0 {
			end, hasNL = off+nl, true
		}
		line := bytes.TrimSpace(data[off:end])
		lineNo++
		if len(line) > 0 {
			if err := s.loadLine(line, path, lineNo); err != nil {
				if !hasNL {
					keep = off // torn tail write from an interrupted run
					break
				}
				if !salvage {
					return nil, err
				}
				bad = append(bad, line)
				off = end + 1
				continue
			}
			good = append(good, line)
			addNL = !hasNL
		}
		if !hasNL {
			break
		}
		off = end + 1
	}
	if salvage && keep < len(data) {
		// The torn tail is quarantined too: it reruns either way, but the
		// bytes may still identify which job the interrupt caught.
		if tail := bytes.TrimSpace(data[keep:]); len(tail) > 0 {
			bad = append(bad, tail)
		}
	}
	s.quarantined = len(bad)
	if len(bad) > 0 {
		if err := quarantine(path, bad); err != nil {
			return nil, err
		}
		// Rewrite the main file with only the intact lines, atomically: a
		// crash mid-rewrite leaves either the old file or the new one, never
		// a half-written store.
		if err := rewrite(path, good); err != nil {
			return nil, err
		}
		keep, addNL, data = 0, false, nil // the rewrite left a clean file
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open checkpoint: %w", err)
	}
	// Repair the tail before anything is appended: a glued-on write would
	// corrupt the file mid-line, which a later open rejects.
	if repaired := keep < len(data) || addNL; repaired {
		if keep < len(data) {
			err = f.Truncate(int64(keep))
		} else {
			_, err = f.Write([]byte{'\n'})
		}
		// Persist the repair itself: without the fsync a crash right after
		// could resurrect the torn line the truncate just removed, and the
		// next open would find appends glued onto it.
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("sweep: repair checkpoint tail: %w", err)
		}
	}
	s.f = f
	return s, nil
}

// loadLine parses and verifies one stored line into the in-memory state.
func (s *Store) loadLine(line []byte, path string, lineNo int) error {
	var e storeEntry
	if err := json.Unmarshal(line, &e); err != nil {
		return fmt.Errorf("sweep: checkpoint %s line %d: %w", path, lineNo, err)
	}
	if e.CRC == "" {
		return fmt.Errorf("sweep: checkpoint %s line %d: no CRC: line is corrupt", path, lineNo)
	}
	if want := entryCRC(storeEntry{Fingerprint: e.Fingerprint, Key: e.Key, Result: e.Result}); e.CRC != want {
		return fmt.Errorf("sweep: checkpoint %s line %d: CRC mismatch (stored %s, computed %s): line is corrupt", path, lineNo, e.CRC, want)
	}
	if e.Fingerprint != "" {
		s.fingerprint = e.Fingerprint
		return nil
	}
	if e.Key != "" && len(e.Result) > 0 {
		// A single-writer sweep never writes a key twice (completed jobs are
		// restored, not rerun), so a duplicate means the store is corrupted
		// or was written by two sweeps at once — loading it silently would
		// let the later line shadow the earlier result.
		if _, dup := s.results[e.Key]; dup {
			return fmt.Errorf("sweep: checkpoint %s line %d: duplicate key %q", path, lineNo, e.Key)
		}
		var r cmp.RunResult
		if err := json.Unmarshal(e.Result, &r); err != nil {
			return fmt.Errorf("sweep: checkpoint %s line %d: result for %q: %w", path, lineNo, e.Key, err)
		}
		s.results[e.Key] = r
	}
	return nil
}

// quarantine appends the corrupt lines to <path>.quarantine, one per line,
// byte-for-byte as found.
func quarantine(path string, lines [][]byte) error {
	q, err := os.OpenFile(path+".quarantine", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("sweep: open quarantine: %w", err)
	}
	for _, line := range lines {
		if _, err := q.Write(append(line, '\n')); err != nil {
			q.Close()
			return fmt.Errorf("sweep: quarantine write: %w", err)
		}
	}
	if err := q.Sync(); err != nil {
		q.Close()
		return fmt.Errorf("sweep: quarantine sync: %w", err)
	}
	if err := q.Close(); err != nil {
		return fmt.Errorf("sweep: quarantine close: %w", err)
	}
	return nil
}

// rewrite atomically replaces path with the given lines via a fsync'd
// temporary file and rename.
func rewrite(path string, lines [][]byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("sweep: salvage rewrite: %w", err)
	}
	for _, line := range lines {
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return fmt.Errorf("sweep: salvage rewrite: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sweep: salvage rewrite: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("sweep: salvage rewrite: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("sweep: salvage rewrite: %w", err)
	}
	return nil
}

// Quarantined returns the number of corrupt lines a salvage open moved to
// <path>.quarantine (0 for a clean store or a plain OpenStore).
func (s *Store) Quarantined() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}

// SyncEvery sets the fsync cadence: every Nth Put flushes the file to
// stable storage (and Close flushes the remainder). 0 — the default —
// restores the historic behavior of leaving durability to the OS; 1
// fsyncs every entry. A lost entry is never corruption either way (the
// job just reruns on resume); the cadence bounds how much completed work
// a power loss can cost.
func (s *Store) SyncEvery(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncEvery = n
}

// Fingerprint returns the stored configuration fingerprint ("" if the
// store has none).
func (s *Store) Fingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fingerprint
}

// SetFingerprint writes the configuration header. It may only be called on
// a store that has no fingerprint yet.
func (s *Store) SetFingerprint(fp string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fingerprint != "" {
		return fmt.Errorf("sweep: checkpoint %s already has a fingerprint", s.path)
	}
	e := storeEntry{Fingerprint: fp}
	e.CRC = entryCRC(e)
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := s.f.Write(line); err != nil {
		return fmt.Errorf("sweep: checkpoint header write: %w", err)
	}
	s.fingerprint = fp
	return nil
}

// Get returns the stored result for key, if present.
func (s *Store) Get(key string) (cmp.RunResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.results[key]
	return r, ok
}

// Len returns the number of stored results.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.results)
}

// Put appends one completed result to the store, CRC-stamped, honoring the
// SyncEvery cadence.
func (s *Store) Put(key string, r cmp.RunResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, err := json.Marshal(&r)
	if err != nil {
		return fmt.Errorf("sweep: marshal result %s: %w", key, err)
	}
	e := storeEntry{Key: key, Result: raw}
	e.CRC = entryCRC(e)
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("sweep: marshal result %s: %w", key, err)
	}
	line = append(line, '\n')
	if _, err := s.f.Write(line); err != nil {
		return fmt.Errorf("sweep: checkpoint write %s: %w", key, err)
	}
	if s.syncEvery > 0 {
		s.putsUnsynced++
		if s.putsUnsynced >= s.syncEvery {
			if err := s.f.Sync(); err != nil {
				return fmt.Errorf("sweep: checkpoint sync %s: %w", key, err)
			}
			s.putsUnsynced = 0
		}
	}
	s.results[key] = r
	return nil
}

// Close flushes (under a SyncEvery cadence) and closes the underlying
// file. The returned error matters: a buffered write that only fails at
// close time is a checkpoint entry that never reached disk. Get/Len remain
// usable, and Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	var syncErr error
	if s.syncEvery > 0 && s.putsUnsynced > 0 {
		syncErr = s.f.Sync()
	}
	err := s.f.Close()
	s.f = nil
	if syncErr != nil {
		return fmt.Errorf("sweep: checkpoint close sync: %w", syncErr)
	}
	if err != nil {
		return fmt.Errorf("sweep: checkpoint close: %w", err)
	}
	return nil
}
