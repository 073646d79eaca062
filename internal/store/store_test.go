package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Has reports whether an object for key is currently indexed, without
// validating its contents or touching recency or counters: how these
// tests probe residency.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index[keyHash(key)] != nil
}

func mustOpen(t *testing.T, dir, version string, budget int64) *Store {
	t.Helper()
	s, err := Open(dir, version, budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "v-test", 0)
	payload := []byte("the quick brown payload")
	key := "result/cc scale 6"

	if _, ok := s.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Invalidated != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 write", st)
	}
	if st.Entries != 1 || st.Bytes <= int64(len(payload)) {
		t.Fatalf("resident set %+v implausible", st)
	}

	// Re-putting an existing key is a no-op, not a rewrite.
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Writes != 1 {
		t.Fatalf("re-put wrote again: %+v", st)
	}
}

// A restart (new Store over the same directory, same version) serves the
// previously written objects.
func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "v-test", 0)
	if err := s.Put("k", []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := mustOpen(t, dir, "v-test", 0)
	got, ok := s2.Get("k")
	if !ok || string(got) != "persisted" {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}
	if st := s2.Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("reopened stats = %+v", st)
	}
}

// Bumping the behavior version invalidates every stale entry: the object
// is deleted on first Get under the new version, never returned.
func TestVersionMismatchInvalidates(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "golden-A", 0)
	if err := s.Put("k", []byte("old-behavior result")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := mustOpen(t, dir, "golden-B", 0)
	if _, ok := s2.Get("k"); ok {
		t.Fatal("stale-version object served")
	}
	st := s2.Stats()
	if st.Invalidated != 1 || st.Misses != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 invalidated / 1 miss / 0 entries", st)
	}
	// The file is gone from disk, not just the index.
	if _, err := os.Stat(s2.pathFor(keyHash("k"))); !os.IsNotExist(err) {
		t.Fatalf("stale object still on disk: %v", err)
	}
	// Rewriting under the new version works.
	if err := s2.Put("k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("k"); !ok || string(got) != "new" {
		t.Fatalf("post-invalidation Get = %q, %v", got, ok)
	}
}

// A corrupted payload (bit flip or truncation) is dropped and missed,
// never returned.
func TestCorruptionDetected(t *testing.T) {
	for name, corrupt := range map[string]func([]byte) []byte{
		"bitflip":  func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b },
		"truncate": func(b []byte) []byte { return b[:len(b)-3] },
		"garbage":  func(b []byte) []byte { return []byte("not an object at all") },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, "v", 0)
			if err := s.Put("k", []byte("precious bytes")); err != nil {
				t.Fatal(err)
			}
			path := s.pathFor(keyHash("k"))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get("k"); ok {
				t.Fatal("corrupted object served")
			}
			if st := s.Stats(); st.Invalidated != 1 {
				t.Fatalf("stats = %+v, want 1 invalidated", st)
			}
		})
	}
}

// The disk budget bounds the object set, evicting least recently used
// first; the ledger does not count against it.
func TestBudgetEviction(t *testing.T) {
	dir := t.TempDir()
	// Each object is ~1 KiB payload + ~160 B header; budget fits ~4.
	s := mustOpen(t, dir, "v", 5<<10)
	payload := bytes.Repeat([]byte("x"), 1<<10)
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so LRU order is well defined even on coarse
		// filesystem timestamp granularity.
		past := time.Now().Add(time.Duration(i-10) * time.Hour)
		os.Chtimes(s.pathFor(keyHash(key)), past, past)
		s.mu.Lock()
		s.index[keyHash(key)].used = past
		s.mu.Unlock()
	}
	st := s.Stats()
	if st.Bytes > 5<<10 {
		t.Fatalf("resident bytes %d exceed budget", st.Bytes)
	}
	if st.Evictions == 0 || st.Entries >= 8 {
		t.Fatalf("no eviction under budget pressure: %+v", st)
	}
	// Oldest keys gone, newest retained.
	if s.Has("k0") {
		t.Fatal("least recently used object survived")
	}
	if !s.Has("k7") {
		t.Fatal("most recent object evicted")
	}
	// The evicted files are actually gone from disk.
	var files int
	filepath.Walk(filepath.Join(dir, "objects"), func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			files++
		}
		return nil
	})
	if files != st.Entries {
		t.Fatalf("%d files on disk, index has %d", files, st.Entries)
	}
}

// Hash collisions cannot serve a wrong payload: the full key inside the
// object is verified, so a mismatched key reads as a miss.
func TestKeyVerified(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "v", 0)
	if err := s.Put("real-key", []byte("data")); err != nil {
		t.Fatal(err)
	}
	// Simulate a collision by renaming the object to another key's hash.
	other := keyHash("other-key")
	src := s.pathFor(keyHash("real-key"))
	dst := s.pathFor(other)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.index[other] = s.index[keyHash("real-key")]
	delete(s.index, keyHash("real-key"))
	s.mu.Unlock()
	if _, ok := s.Get("other-key"); ok {
		t.Fatal("object with mismatched embedded key served")
	}
}

func TestDelete(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "v", 0)
	s.Put("k", []byte("x"))
	s.Delete("k")
	if s.Has("k") {
		t.Fatal("deleted key still present")
	}
	if st := s.Stats(); st.Invalidated != 1 {
		t.Fatalf("stats = %+v, want 1 invalidated", st)
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "v-stamp", 0)
	for i := 0; i < 3; i++ {
		err := s.AppendLedger(LedgerEntry{
			Kind: "result", Key: fmt.Sprintf("k%d", i),
			Benchmark: "cc", Cycles: int64(100 + i), WallSeconds: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Readable via the directory or the file path, across restarts.
	s.Close()
	for _, path := range []string{dir, LedgerPath(dir)} {
		entries, err := ReadLedger(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 3 {
			t.Fatalf("read %d entries, want 3", len(entries))
		}
		for i, e := range entries {
			if e.Key != fmt.Sprintf("k%d", i) || e.Kind != "result" ||
				e.Version != "v-stamp" || e.Time == "" {
				t.Fatalf("entry %d = %+v", i, e)
			}
		}
	}
	// A torn final line (crashed process) is skipped, not fatal.
	f, err := os.OpenFile(LedgerPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"time":"2026-`)
	f.Close()
	entries, err := ReadLedger(dir)
	if err != nil || len(entries) != 3 {
		t.Fatalf("torn tail: %d entries, %v", len(entries), err)
	}
}
