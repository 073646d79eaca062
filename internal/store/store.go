// Package store is the durable second level of the simulation result
// cache: a disk-backed, content-addressed object store that outlives the
// process. The in-memory memo.Cache stays the fast front; on a memo miss
// the Runner consults the store before simulating, and completed (or
// LRU-evicted) entries are written back, so a restarted service warm-
// starts from previously computed results instead of re-simulating the
// world.
//
// Every object is stamped with the simulator-behavior version the store
// was opened with (blp.BehaviorVersion derives it from the committed
// golden files). A Get that finds an object carrying a different stamp
// deletes it and reports a miss — a behavior-changing PR therefore
// silently invalidates every stale entry rather than serving numbers the
// current simulator would no longer produce. Payloads are additionally
// checksummed; torn or bit-rotted files are dropped the same way.
//
// Objects live under dir/objects/<aa>/<sha256(key)>, so the key space is
// flat and lookup is one hash away; the full key is recorded inside each
// object and verified on read (a hash collision degrades to a miss, never
// to a wrong result). A byte budget bounds the directory: when a Put
// would exceed it, the least recently used objects (by access time,
// refreshed on Get) are removed first.
//
// The store also keeps an append-only NDJSON experiment ledger
// (dir/ledger.ndjson): one line per completed simulation, readable back
// as trajectory history (see ReadLedger and sfserved -ledger).
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// magic is the first line of every object file; bump the trailing digit
// on any container-format change (the payload schema is governed by the
// version stamp, not by magic).
const magic = "sfstore v1"

// Stats is a point-in-time snapshot of a Store's activity and resident
// set.
type Stats struct {
	// Hits counts Gets answered from a valid on-disk object; Misses
	// counts Gets that found nothing usable.
	Hits, Misses int64
	// Writes counts objects actually written (Put on an already-present
	// key is a no-op and does not count).
	Writes int64
	// Invalidated counts objects dropped because their version stamp no
	// longer matches the store's, their payload failed the checksum, or
	// their container was malformed — plus explicit Delete calls.
	Invalidated int64
	// Evictions counts objects removed to keep the store under budget.
	Evictions int64
	// Entries and Bytes describe the on-disk resident set; Budget is the
	// configured byte limit (0 = unbounded).
	Entries int
	Bytes   int64
	Budget  int64
}

// object is the in-memory index entry for one on-disk file.
type object struct {
	hash string // sha256(key), the file name
	size int64  // whole-file size
	used time.Time
}

// Store is one open store directory. Safe for concurrent use by a single
// process; concurrent processes sharing a directory are not coordinated
// (last write wins, which is safe because objects are immutable values
// of their key).
type Store struct {
	dir     string
	version string
	budget  int64

	mu     sync.Mutex
	index  map[string]*object // keyed by hash
	bytes  int64
	ledger *os.File

	hits, misses, writes, invalidated, evictions int64
}

// Open opens (creating if needed) the store rooted at dir, stamped with
// the given simulator-behavior version. budgetBytes bounds the on-disk
// object set (<= 0: unbounded); the ledger is append-only and not
// counted against the budget. Existing objects are indexed by a stat
// walk — their contents are validated lazily, on first Get.
func Open(dir, version string, budgetBytes int64) (*Store, error) {
	if version == "" {
		return nil, fmt.Errorf("store: empty version stamp")
	}
	if budgetBytes < 0 {
		budgetBytes = 0
	}
	objDir := filepath.Join(dir, "objects")
	if err := os.MkdirAll(objDir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		version: version,
		budget:  budgetBytes,
		index:   make(map[string]*object),
	}
	err := filepath.WalkDir(objDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with a concurrent delete; skip
		}
		hash := d.Name()
		s.index[hash] = &object{hash: hash, size: info.Size(), used: accessTime(info)}
		s.bytes += info.Size()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: indexing %s: %w", objDir, err)
	}
	lf, err := os.OpenFile(filepath.Join(dir, "ledger.ndjson"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.ledger = lf
	return s, nil
}

// accessTime approximates an object's recency from file metadata; the
// modification time is refreshed on every Get (os.Chtimes), so it
// survives restarts as the LRU clock.
func accessTime(info fs.FileInfo) time.Time { return info.ModTime() }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Version returns the behavior stamp the store was opened with.
func (s *Store) Version() string { return s.version }

// Close closes the ledger. Object operations after Close still work; the
// ledger is the only held resource.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ledger == nil {
		return nil
	}
	err := s.ledger.Close()
	s.ledger = nil
	return err
}

func keyHash(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

func (s *Store) pathFor(hash string) string {
	return filepath.Join(s.dir, "objects", hash[:2], hash)
}

// Get returns the stored payload for key, or ok=false. A stored object
// whose version stamp, key, or payload checksum does not match is
// deleted and reported as a miss (counted in Stats.Invalidated); the
// store never returns bytes it cannot vouch for. I/O errors degrade to
// misses — persistence is an optimization, not a dependency.
func (s *Store) Get(key string) (data []byte, ok bool) {
	hash := keyHash(key)
	s.mu.Lock()
	obj := s.index[hash]
	s.mu.Unlock()
	if obj == nil {
		s.count(&s.misses)
		return nil, false
	}
	payload, err := s.readObject(hash, key)
	if err != nil {
		s.dropObject(hash, &s.invalidated)
		s.count(&s.misses)
		return nil, false
	}
	now := time.Now()
	os.Chtimes(s.pathFor(hash), now, now) // best-effort recency refresh
	s.mu.Lock()
	if o := s.index[hash]; o != nil {
		o.used = now
	}
	s.hits++
	s.mu.Unlock()
	return payload, true
}

// readObject reads and fully validates one object file, returning its
// payload.
func (s *Store) readObject(hash, key string) ([]byte, error) {
	raw, err := os.ReadFile(s.pathFor(hash))
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(bytes.NewReader(raw))
	line := func() (string, error) {
		l, err := br.ReadString('\n')
		return strings.TrimSuffix(l, "\n"), err
	}
	if l, err := line(); err != nil || l != magic {
		return nil, fmt.Errorf("store: %s: bad magic", hash)
	}
	ver, err := line()
	if err != nil {
		return nil, err
	}
	if ver != s.version {
		return nil, fmt.Errorf("store: %s: version %q, store is %q", hash, ver, s.version)
	}
	quoted, err := line()
	if err != nil {
		return nil, err
	}
	gotKey, err := strconv.Unquote(quoted)
	if err != nil || gotKey != key {
		return nil, fmt.Errorf("store: %s: key mismatch", hash)
	}
	sumLine, err := line()
	if err != nil {
		return nil, err
	}
	sum, lenStr, ok := strings.Cut(sumLine, " ")
	if !ok {
		return nil, fmt.Errorf("store: %s: malformed checksum line", hash)
	}
	n, err := strconv.Atoi(lenStr)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("store: %s: truncated payload: %w", hash, err)
	}
	if got := sha256.Sum256(payload); hex.EncodeToString(got[:]) != sum {
		return nil, fmt.Errorf("store: %s: payload checksum mismatch", hash)
	}
	return payload, nil
}

// Has reports whether an object for key is currently indexed (without
// validating its contents or touching recency/counters).
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index[keyHash(key)] != nil
}

// Put stores payload under key, atomically (temp file + rename): a
// process killed mid-write leaves no torn object behind. A key that is
// already present is left untouched — objects are immutable values of
// their key, so rewriting identical bytes would only churn the disk.
// Storing may evict least-recently-used objects to stay under budget;
// the just-written object itself is never the eviction victim.
func (s *Store) Put(key string, payload []byte) error {
	hash := keyHash(key)
	s.mu.Lock()
	if s.index[hash] != nil {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s\n%s\n%s\n%s %d\n",
		magic, s.version, strconv.Quote(key), hex.EncodeToString(sum[:]), len(payload))
	buf.Write(payload)

	path := s.pathFor(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-"+hash[:8]+"-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := tmp.Write(buf.Bytes())
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %s: %w", hash, firstErr(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}

	size := int64(buf.Len())
	s.mu.Lock()
	if s.index[hash] == nil {
		s.index[hash] = &object{hash: hash, size: size, used: time.Now()}
		s.bytes += size
		s.writes++
	}
	victims := s.evictToLocked(hash)
	s.mu.Unlock()
	for _, v := range victims {
		os.Remove(s.pathFor(v))
	}
	return nil
}

// evictToLocked selects least-recently-used objects until the store fits
// its budget, removing them from the index; keep is exempt (the entry
// being inserted). Caller holds s.mu and removes the returned files.
func (s *Store) evictToLocked(keep string) []string {
	if s.budget <= 0 || s.bytes <= s.budget {
		return nil
	}
	objs := make([]*object, 0, len(s.index))
	for _, o := range s.index {
		if o.hash != keep {
			objs = append(objs, o)
		}
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].used.Before(objs[j].used) })
	var out []string
	for _, o := range objs {
		if s.bytes <= s.budget {
			break
		}
		delete(s.index, o.hash)
		s.bytes -= o.size
		s.evictions++
		out = append(out, o.hash)
	}
	return out
}

// Delete removes the object for key, counting it as invalidated.
func (s *Store) Delete(key string) {
	s.dropObject(keyHash(key), &s.invalidated)
}

// dropObject removes one object from disk and index, bumping the given
// counter if it was present.
func (s *Store) dropObject(hash string, counter *int64) {
	s.mu.Lock()
	obj := s.index[hash]
	if obj != nil {
		delete(s.index, hash)
		s.bytes -= obj.size
		*counter++
	}
	s.mu.Unlock()
	if obj != nil {
		os.Remove(s.pathFor(hash))
	}
}

func (s *Store) count(c *int64) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

// Stats returns the store's counters and on-disk resident set.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses, Writes: s.writes,
		Invalidated: s.invalidated, Evictions: s.evictions,
		Entries: len(s.index), Bytes: s.bytes, Budget: s.budget,
	}
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
