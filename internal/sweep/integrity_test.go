package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
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

// crcless lists the two ways a store line can lose its CRC, each as a
// function returning the damaged line: the field dropped, or its key
// damaged ("crc" renamed "crx") together with an edit of the result on
// the same line that only the CRC would have caught.
var crcless = []struct {
	name   string
	damage func(t testing.TB, line []byte) []byte
}{
	{"dropped", func(t testing.TB, line []byte) []byte {
		var e storeEntry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		e.CRC = ""
		out, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		return append(out, '\n')
	}},
	{"damaged key", func(t testing.TB, line []byte) []byte {
		out := bytes.Replace(line, []byte(`"crc":`), []byte(`"crx":`), 1)
		out = regexp.MustCompile(`"Cycles":\d+`).ReplaceAll(out, []byte(`"Cycles":900`))
		if bytes.Equal(out, line) || !bytes.Contains(out, []byte(`"Cycles":900`)) {
			t.Fatalf("line %q has no crc key or Cycles field to damage", line)
		}
		return out
	}},
}

// TestStoreMissingCRCIsCorrupt: every line a store writes carries a CRC,
// so an interior line without one is corrupt. OpenStore refuses the
// store, and OpenStoreSalvage quarantines the line, keeps the rest, and
// leaves a store a plain open accepts.
func TestStoreMissingCRCIsCorrupt(t *testing.T) {
	for _, c := range crcless {
		t.Run(c.name, func(t *testing.T) {
			path, _ := writeStore(t, 3)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitAfter(data, []byte("\n"))
			bad := c.damage(t, lines[2]) // the second result, after the header
			lines[2] = bad
			if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
				t.Fatal(err)
			}

			if _, err := OpenStore(path); err == nil || !strings.Contains(err.Error(), "line 3: no CRC") {
				t.Fatalf("OpenStore on a line without a CRC returned %v, want a refusal naming line 3", err)
			}
			s, err := OpenStoreSalvage(path)
			if err != nil {
				t.Fatalf("OpenStoreSalvage: %v", err)
			}
			if s.Quarantined() != 1 || s.Len() != 2 {
				t.Errorf("salvage quarantined %d lines and kept %d results, want 1 and 2", s.Quarantined(), s.Len())
			}
			if _, ok := s.Get("job-01"); ok {
				t.Error("the line without a CRC was restored instead of quarantined")
			}
			s.Close()
			q, err := os.ReadFile(path + ".quarantine")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(q, bad) {
				t.Errorf("quarantine holds %q, want the damaged line %q", q, bad)
			}
			if _, err := OpenStore(path); err != nil {
				t.Errorf("OpenStore after salvage rewrite: %v", err)
			}
		})
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
	// result lines, a line without a CRC, a duplicate key, a torn tail,
	// bit rot only the CRC catches, a garbage interior line, and a line
	// whose damaged "crc" key hides an edited result.
	path, _ := writeStore(f, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	header, line := lines[0], lines[1]
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add(header)
	f.Add(data)
	f.Add(cat(header, crcless[0].damage(f, line)))
	f.Add(cat(header, line, line))
	f.Add(cat(data, []byte(`{"key":"torn","result":{"Sch`)))
	f.Add(bytes.Replace(data, []byte(`"Scheme":"job-01"`), []byte(`"Scheme":"job-0X"`), 1))
	f.Add(cat(header, []byte("!!not json at all!!\n"), line))
	f.Add(cat(header, crcless[1].damage(f, line)))

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
