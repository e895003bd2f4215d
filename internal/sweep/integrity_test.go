package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"snug/internal/cmp"
)

// writeStore runs a small checkpointed sweep and returns the store path
// and its results, for integrity tests to corrupt.
func writeStore(t testing.TB, n int) (string, map[string]cmp.RunResult) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	res, err := Run(context.Background(), Options{
		Parallelism: 1, BaseSeed: 7, Checkpoint: path, Fingerprint: "integrity-test/v1",
	}, fakeJobs(n))
	if err != nil {
		t.Fatal(err)
	}
	return path, res
}

// corruptLastOccurrence flips stored bytes by replacing the LAST occurrence
// of old in the file — inside an entry's result payload, past the key field
// — keeping the line valid JSON with an intact key, so only the CRC can
// catch it.
func corruptLastOccurrence(t *testing.T, path, old, new string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.LastIndex(data, []byte(old))
	if i < 0 {
		t.Fatalf("store does not contain %q", old)
	}
	copy(data[i:], new)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCRCDetectsCorruption: a bit-rotted line that still parses as
// JSON with a unique key — invisible to every structural check — is caught
// by the per-line CRC: OpenStore refuses, OpenStoreSalvage quarantines it
// and keeps the rest.
func TestStoreCRCDetectsCorruption(t *testing.T) {
	path, _ := writeStore(t, 3)
	corruptLastOccurrence(t, path, `"Scheme":"job-01"`, `"Scheme":"job-0X"`)

	if _, err := OpenStore(path); err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("OpenStore on a corrupt line returned %v, want a CRC mismatch refusal", err)
	}

	s, err := OpenStoreSalvage(path)
	if err != nil {
		t.Fatalf("OpenStoreSalvage: %v", err)
	}
	defer s.Close()
	if s.Quarantined() != 1 {
		t.Errorf("Quarantined() = %d, want 1", s.Quarantined())
	}
	if s.Len() != 2 {
		t.Errorf("salvaged store holds %d results, want the 2 intact ones", s.Len())
	}
	if _, ok := s.Get("job-01"); ok {
		t.Error("the corrupt job-01 line was restored instead of quarantined")
	}
	q, err := os.ReadFile(path + ".quarantine")
	if err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if !bytes.Contains(q, []byte(`"Scheme":"job-0X"`)) {
		t.Error("quarantine file does not preserve the corrupt line's bytes")
	}
	// The salvage rewrite leaves a store a normal open accepts, and the
	// quarantined job simply reruns on resume.
	s.Close()
	if _, err := OpenStore(path); err != nil {
		t.Errorf("OpenStore after salvage rewrite: %v", err)
	}
}

// TestStoreSalvageInteriorGarbage: a corrupt newline-terminated interior
// line (not a torn tail) is refused by OpenStore and quarantined by
// OpenStoreSalvage; resuming the sweep afterwards reruns exactly the lost
// job and converges to complete results.
func TestStoreSalvageInteriorGarbage(t *testing.T) {
	path, want := writeStore(t, 4)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	// Replace the second result line (after the fingerprint header) with
	// garbage that is not even JSON.
	lines[2] = []byte("!!not json at all!!\n")
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenStore(path); err == nil {
		t.Fatal("OpenStore accepted a garbage interior line")
	}

	res, err := Run(context.Background(), Options{
		Parallelism: 1, BaseSeed: 7, Checkpoint: path,
		Fingerprint: "integrity-test/v1", Salvage: true,
	}, fakeJobs(4))
	if err != nil {
		t.Fatalf("salvage resume: %v", err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Error("salvage-resumed results differ from the original sweep")
	}
}

// TestStoreAbsentCRCBackcompat: a store written without CRC fields — the
// format of releases before this one — loads unchanged, resumes a sweep
// with zero reruns, and the resume writes nothing (byte-identical file),
// so existing long-running checkpoints survive the upgrade.
func TestStoreAbsentCRCBackcompat(t *testing.T) {
	path, want := writeStore(t, 5)
	// Strip the CRC field from every line, producing the previous release's
	// on-disk format (field order and encoding are otherwise identical).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var e storeEntry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		e.CRC = ""
		out, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		legacy.Write(append(out, '\n'))
	}
	legacyPath := filepath.Join(t.TempDir(), "legacy.jsonl")
	if err := os.WriteFile(legacyPath, legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var last Progress
	res, err := Run(context.Background(), Options{
		Parallelism: 1, BaseSeed: 7, Checkpoint: legacyPath,
		Fingerprint: "integrity-test/v1",
		OnProgress:  func(p Progress) { last = p },
	}, fakeJobs(5))
	if err != nil {
		t.Fatalf("resume from legacy store: %v", err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Error("legacy-store results differ from the original sweep")
	}
	if last.Restored != 5 {
		t.Errorf("restored %d jobs from the legacy store, want all 5", last.Restored)
	}
	after, err := os.ReadFile(legacyPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, legacy.Bytes()) {
		t.Error("resuming a complete legacy store rewrote its bytes")
	}
}

// TestStoreSyncCadence: Options.Sync survives the round trip — entries
// written under a cadence read back complete, and a partial batch is
// flushed by Close.
func TestStoreSyncCadence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	res, err := Run(context.Background(), Options{
		Parallelism: 1, BaseSeed: 7, Checkpoint: path, Sync: 2,
	}, fakeJobs(5))
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != len(res) {
		t.Errorf("store holds %d results, want %d", s.Len(), len(res))
	}
}

// TestStoreSalvageTornTail: salvage quarantines a torn tail's bytes (for
// forensics) where the normal open silently truncates them; both leave a
// clean, resumable store.
func TestStoreSalvageTornTail(t *testing.T) {
	path, _ := writeStore(t, 3)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn","result":{"Sch`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err := OpenStoreSalvage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 3 {
		t.Errorf("salvaged store holds %d results, want 3", s.Len())
	}
	if s.Quarantined() != 1 {
		t.Errorf("Quarantined() = %d, want the torn tail", s.Quarantined())
	}
	q, err := os.ReadFile(path + ".quarantine")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(q, []byte(`"key":"torn"`)) {
		t.Error("quarantine does not preserve the torn tail bytes")
	}
}

// TestProgressReportsQuarantined: the quarantine count reaches the
// progress stream, so an operator sees salvage happened.
func TestProgressReportsQuarantined(t *testing.T) {
	path, _ := writeStore(t, 3)
	corruptLastOccurrence(t, path, `"Scheme":"job-02"`, `"Scheme":"job-0X"`)
	var first Progress
	seen := false
	_, err := Run(context.Background(), Options{
		Parallelism: 1, BaseSeed: 7, Checkpoint: path,
		Fingerprint: "integrity-test/v1", Salvage: true,
		OnProgress: func(p Progress) {
			if !seen {
				first, seen = p, true
			}
		},
	}, fakeJobs(3))
	if err != nil {
		t.Fatal(err)
	}
	if !seen || first.Quarantined != 1 {
		t.Errorf("first progress snapshot reports Quarantined=%d (seen=%v), want 1", first.Quarantined, seen)
	}
	if first.Restored != 2 {
		t.Errorf("first progress snapshot reports Restored=%d, want the 2 intact jobs", first.Restored)
	}
}

// FuzzOpenStore feeds arbitrary bytes to both open paths. Neither may
// panic; a store OpenStore accepts takes one more Put and reopens to the
// same fingerprint and one more result (its tail repair leaves a clean
// line boundary); and OpenStoreSalvage always succeeds, leaving a file
// that a plain OpenStore accepts with the same results.
func FuzzOpenStore(f *testing.F) {
	// Seed with the shapes the integrity tests build: a header, CRC'd
	// result lines, a legacy line without a CRC, a duplicate key, a torn
	// tail, bit rot only the CRC catches, and a garbage interior line.
	path, _ := writeStore(f, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	header, line := lines[0], lines[1]
	var e storeEntry
	if err := json.Unmarshal(line, &e); err != nil {
		f.Fatal(err)
	}
	e.CRC = ""
	legacy, err := json.Marshal(e)
	if err != nil {
		f.Fatal(err)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add(header)
	f.Add(data)
	f.Add(cat(header, legacy, []byte("\n")))
	f.Add(cat(header, line, line))
	f.Add(cat(data, []byte(`{"key":"torn","result":{"Sch`)))
	f.Add(bytes.Replace(data, []byte(`"Scheme":"job-01"`), []byte(`"Scheme":"job-0X"`), 1))
	f.Add(cat(header, []byte("!!not json at all!!\n"), line))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		plain := filepath.Join(dir, "plain.jsonl")
		if err := os.WriteFile(plain, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := OpenStore(plain); err == nil {
			n, fp := s.Len(), s.Fingerprint()
			const key = "fuzz-appended"
			if _, dup := s.Get(key); !dup {
				if err := s.Put(key, cmp.RunResult{Scheme: key}); err != nil {
					t.Fatal(err)
				}
				n++
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := OpenStore(plain)
			if err != nil {
				t.Fatalf("reopening an accepted store: %v", err)
			}
			if again.Len() != n || again.Fingerprint() != fp {
				t.Errorf("reopened store holds %d results, fingerprint %q; first open held %d, %q",
					again.Len(), again.Fingerprint(), n, fp)
			}
			again.Close()
		}

		salvaged := filepath.Join(dir, "salvaged.jsonl")
		if err := os.WriteFile(salvaged, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStoreSalvage(salvaged)
		if err != nil {
			t.Fatalf("OpenStoreSalvage: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := OpenStore(salvaged)
		if err != nil {
			t.Fatalf("OpenStore of a salvaged store: %v", err)
		}
		defer again.Close()
		if !reflect.DeepEqual(again.results, s.results) || again.Fingerprint() != s.Fingerprint() {
			t.Errorf("salvaged store reopens with %d results, fingerprint %q; salvage kept %d, %q",
				again.Len(), again.Fingerprint(), s.Len(), s.Fingerprint())
		}
	})
}
