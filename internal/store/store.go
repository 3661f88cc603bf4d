// Package store owns blitzd's result tiers. Cache is the tier stack the
// server does its one Get/Put against: a memory LRU over an optional disk
// Store (nil disk means memory-only). Store is the disk tier, a
// content-addressed result store. Results are already content-addressed
// by canonical options hash + engine version, so a blob written once is
// valid forever for that engine — the store just makes the mapping
// durable across restarts and shareable between cluster workers pointed
// at the same directory. Both tiers keep their recency order in the same
// unexported LRU.
//
// Layout: each entry is a pair of files under a two-hex-char fan-out
// directory, named by the SHA-256 of (engine, key):
//
//	<dir>/<ab>/<digest>.blob  — the marshaled result bytes, verbatim
//	<dir>/<ab>/<digest>.json  — sidecar: key, engine, kind, blob SHA-256, size
//
// Writes are atomic (temp file + fsync + rename, blob before sidecar, so
// a crash can orphan a blob but never a sidecar pointing at garbage).
// Reads verify the blob's SHA-256 against the sidecar and evict corrupt
// pairs. On boot the directory is scanned into an in-memory index in the
// background — requests arriving mid-warm fall back to a direct path
// probe, so a freshly restarted daemon serves its old results
// immediately. The store is size-bounded: least-recently-used entries
// (boot order: file modification time) are deleted once the byte bound is
// exceeded.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Meta is the sidecar an entry's blob is described by.
type Meta struct {
	// Key is the cache key the blob is stored under (canonical options
	// hash, optionally range-extended for shard results).
	Key string `json:"key"`
	// Engine is the engine version that produced the blob; the store only
	// serves entries matching its own engine.
	Engine string `json:"engine"`
	// Kind labels the result ("exchange", "figure", "soc-shard", ...).
	Kind string `json:"kind"`
	// SHA256 is the hex digest of the blob bytes, verified on every read.
	SHA256 string `json:"sha256"`
	// Size is the blob length in bytes.
	Size int64 `json:"size"`
}

// Stats is a snapshot of the store's counters and gauges for /metrics.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Writes    uint64
	Evictions uint64
	Corrupt   uint64
	Errors    uint64
	Entries   int
	Bytes     int64
	Warmed    bool
}

// Store is the disk tier. All methods are safe for concurrent use;
// Close waits for the background warm scan.
type Store struct {
	dir    string
	engine string
	log    *slog.Logger

	mu     sync.Mutex
	index  lru // keyed by digest, byte-bounded; entries carry no bytes
	warmed bool

	hits, misses, writes, evictions, corrupt, errs uint64

	warmWG sync.WaitGroup
}

// Open creates (if needed) and indexes a store directory for the given
// engine version. maxBytes <= 0 disables the size bound. The directory
// scan runs in the background; Get falls back to direct disk probes
// until it finishes, so serving can start immediately.
func Open(dir, engine string, maxBytes int64, log *slog.Logger) (*Store, error) {
	if log == nil {
		log = slog.Default()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir, engine: engine, log: log, index: newLRU(0, maxBytes)}
	s.warmWG.Add(1)
	go s.warm()
	return s, nil
}

// Close waits for the warm scan to finish. No other shutdown work is
// needed: every write is already durable when Put returns.
func (s *Store) Close() {
	s.warmWG.Wait()
}

// digest names the file pair for a (engine, key) pair. Keys are hashed so
// range-extended shard keys (hash:lo-hi) and any future key shapes are
// always safe file names, and a new engine version addresses a disjoint
// namespace in the same directory.
func (s *Store) digest(key string) string {
	sum := sha256.Sum256([]byte(s.engine + "\x00" + key))
	return hex.EncodeToString(sum[:])
}

func (s *Store) blobPath(digest string) string {
	return filepath.Join(s.dir, digest[:2], digest+".blob")
}

func (s *Store) sidecarPath(digest string) string {
	return filepath.Join(s.dir, digest[:2], digest+".json")
}

// Get returns the stored bytes for key, verifying them against the
// sidecar digest. Before the warm scan completes, an index miss falls
// through to a direct disk probe so restarts serve immediately. The index
// lookup and the counting hold s.mu; the blob read and its SHA-256 do not.
func (s *Store) Get(key string) ([]byte, bool) {
	digest := s.digest(key)
	s.mu.Lock()
	_, indexed := s.index.get(digest)
	warmed := s.warmed
	s.mu.Unlock()

	if indexed {
		b, err := s.readVerify(digest)
		s.mu.Lock()
		if err == nil {
			s.hits++
		} else {
			s.misses++
			// Since the lookup, GC may have removed the pair or a
			// concurrent Get may have dropped it. Only a Get that still
			// finds the entry drops and counts it, and a vanished file is
			// a miss, not corruption.
			if _, ok := s.index.items[digest]; ok && !errors.Is(err, fs.ErrNotExist) {
				s.log.Warn("store entry dropped", "key", shortKey(key), "error", err)
				s.index.remove(digest)
				s.removeFiles(digest)
				s.corrupt++
			}
		}
		s.mu.Unlock()
		return b, err == nil
	}
	if !warmed {
		// The boot scan hasn't reached this entry yet (or hasn't started);
		// probe the disk directly and index what we find.
		if b, err := s.probe(digest); err == nil {
			s.mu.Lock()
			s.index.put(digest, int64(len(b)), nil)
			s.hits++
			s.mu.Unlock()
			return b, true
		}
	}
	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
	return nil, false
}

// has reports whether key is stored without counting, promoting or reading
// it: an index lookup, or a sidecar probe until the warm scan completes.
func (s *Store) has(key string) bool {
	digest := s.digest(key)
	s.mu.Lock()
	_, ok := s.index.items[digest]
	warmed := s.warmed
	s.mu.Unlock()
	if ok || warmed {
		return ok
	}
	_, err := os.Stat(s.sidecarPath(digest))
	return err == nil
}

// probe reads and verifies a pair straight off the disk.
func (s *Store) probe(digest string) ([]byte, error) {
	meta, err := s.readSidecar(s.sidecarPath(digest))
	if err != nil {
		return nil, err
	}
	if meta.Engine != s.engine {
		return nil, fmt.Errorf("store: engine %s, want %s", meta.Engine, s.engine)
	}
	return s.readVerify(digest)
}

// readVerify reads a blob and checks it against its sidecar.
func (s *Store) readVerify(digest string) ([]byte, error) {
	meta, err := s.readSidecar(s.sidecarPath(digest))
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(s.blobPath(digest))
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != meta.SHA256 {
		return nil, fmt.Errorf("store: blob %s corrupt: sha %s, sidecar says %s", digest[:12], got[:12], meta.SHA256[:12])
	}
	return b, nil
}

// readSidecar parses one sidecar file.
func (s *Store) readSidecar(path string) (Meta, error) {
	var meta Meta
	b, err := os.ReadFile(path)
	if err != nil {
		return meta, err
	}
	if err := json.Unmarshal(b, &meta); err != nil {
		return meta, fmt.Errorf("store: sidecar %s: %w", filepath.Base(path), err)
	}
	return meta, nil
}

// Put durably stores bytes under key: blob first, then sidecar, each via
// temp file + fsync + rename, so a reader (or a crash) never observes a
// half-written pair. Re-putting a key overwrites it. Errors are returned
// for logging but the daemon treats the disk tier as best-effort — a
// failed Put never fails the sweep that produced the bytes.
func (s *Store) Put(key, kind string, b []byte) error {
	digest := s.digest(key)
	sum := sha256.Sum256(b)
	meta := Meta{
		Key:    key,
		Engine: s.engine,
		Kind:   kind,
		SHA256: hex.EncodeToString(sum[:]),
		Size:   int64(len(b)),
	}
	sidecar, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("store: encoding sidecar: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(s.dir, digest[:2]), 0o755); err != nil {
		s.countError()
		return fmt.Errorf("store: %w", err)
	}
	if err := s.writeAtomic(s.blobPath(digest), b); err != nil {
		s.countError()
		return err
	}
	if err := s.writeAtomic(s.sidecarPath(digest), sidecar); err != nil {
		s.countError()
		return err
	}

	s.mu.Lock()
	s.index.put(digest, int64(len(b)), nil)
	s.writes++
	s.gcLocked()
	s.mu.Unlock()
	return nil
}

// writeAtomic writes data to path via a temp file in the same directory,
// fsyncs, and renames into place.
func (s *Store) writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, fmt.Sprintf("tmp-%d-*", os.Getpid()))
	if err != nil {
		return fmt.Errorf("store: temp file: %w", err)
	}
	tmp := f.Name()
	cleanup := func() {
		if err := os.Remove(tmp); err != nil && !os.IsNotExist(err) {
			s.log.Warn("store temp cleanup", "path", tmp, "error", err)
		}
	}
	if _, err := f.Write(data); err != nil {
		if cerr := f.Close(); cerr != nil {
			s.log.Warn("store temp close", "path", tmp, "error", cerr)
		}
		cleanup()
		return fmt.Errorf("store: writing %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		if cerr := f.Close(); cerr != nil {
			s.log.Warn("store temp close", "path", tmp, "error", cerr)
		}
		cleanup()
		return fmt.Errorf("store: syncing %s: %w", filepath.Base(path), err)
	}
	if err := f.Close(); err != nil {
		cleanup()
		return fmt.Errorf("store: closing %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		cleanup()
		return fmt.Errorf("store: publishing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// gcLocked deletes least-recently-used entries until the byte bound
// holds, never evicting the most recent entry.
func (s *Store) gcLocked() {
	s.evictions += s.index.evict(func(e *lruEntry) { s.removeFiles(e.key) })
}

// removeFiles deletes an entry's blob and sidecar; s.mu must be held.
func (s *Store) removeFiles(digest string) {
	for _, p := range []string{s.blobPath(digest), s.sidecarPath(digest)} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			s.errs++
			s.log.Warn("store remove", "path", p, "error", err)
		}
	}
}

// warm scans the directory into the index: sidecars are read oldest-first
// so the LRU order after a restart approximates the order entries were
// last written, orphan blobs and stale temp files are swept, and the byte
// bound is enforced once the scan completes. Entries Put or probed while
// the scan ran are left where concurrent use placed them.
func (s *Store) warm() {
	defer func() {
		s.mu.Lock()
		s.warmed = true
		s.gcLocked()
		s.mu.Unlock()
		s.warmWG.Done()
	}()

	type found struct {
		meta    Meta
		digest  string
		modTime time.Time
	}
	var scanned []found
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		name := d.Name()
		switch {
		case strings.HasPrefix(name, "tmp-"):
			// A crashed write's residue — but never this process's own
			// in-flight temp files (Put can race the warm scan).
			if !strings.HasPrefix(name, fmt.Sprintf("tmp-%d-", os.Getpid())) {
				if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
					s.log.Warn("store temp sweep", "path", path, "error", err)
				}
			}
			return nil
		case !strings.HasSuffix(name, ".json"):
			return nil
		}
		meta, err := s.readSidecar(path)
		if err != nil {
			s.log.Warn("store sidecar unreadable", "path", path, "error", err)
			return nil
		}
		digest := strings.TrimSuffix(name, ".json")
		info, err := d.Info()
		if err != nil {
			return nil
		}
		if _, err := os.Stat(s.blobPath(digest)); err != nil {
			// Sidecar without blob: remove the stray (blob-before-sidecar
			// write order makes this unreachable short of manual tampering).
			s.log.Warn("store sidecar without blob", "path", path)
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				s.log.Warn("store sidecar sweep", "path", path, "error", err)
			}
			return nil
		}
		scanned = append(scanned, found{meta: meta, digest: digest, modTime: info.ModTime()})
		return nil
	})
	if err != nil {
		s.log.Warn("store warm scan", "dir", s.dir, "error", err)
	}

	// Oldest first: pushing each to the front leaves the newest at the
	// front, so GC evicts stale engines and old results first.
	sort.Slice(scanned, func(i, j int) bool { return scanned[i].modTime.Before(scanned[j].modTime) })
	indexed := 0
	s.mu.Lock()
	for _, f := range scanned {
		if _, ok := s.index.items[f.digest]; ok {
			continue // a concurrent Put or probe got here first
		}
		s.index.put(f.digest, f.meta.Size, nil)
		indexed++
	}
	total, bytes := s.index.ll.Len(), s.index.bytes
	s.mu.Unlock()
	s.log.Info("store warm", "dir", s.dir, "indexed", indexed, "entries", total, "bytes", bytes)
}

func (s *Store) countError() {
	s.mu.Lock()
	s.errs++
	s.mu.Unlock()
}

// Stats snapshots the counters for /metrics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:      s.hits,
		Misses:    s.misses,
		Writes:    s.writes,
		Evictions: s.evictions,
		Corrupt:   s.corrupt,
		Errors:    s.errs,
		Entries:   s.index.ll.Len(),
		Bytes:     s.index.bytes,
		Warmed:    s.warmed,
	}
}

// shortKey abbreviates a key for log lines.
func shortKey(k string) string {
	if len(k) > 16 {
		return k[:16]
	}
	return k
}
