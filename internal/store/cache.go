package store

import (
	"container/list"
	"sync"
)

// lru is the recency bookkeeping both tiers share: entries ordered by use
// (front = most recently used), an index into that order, and the summed
// entry sizes, bounded by entry count and by bytes. It is not safe for
// concurrent use; each tier guards its own lru with its own mutex.
type lru struct {
	maxEntries int   // <= 0: no entry bound
	maxBytes   int64 // <= 0: no byte bound

	ll    *list.List // front = most recently used
	items map[string]*list.Element
	bytes int64
}

// lruEntry is one indexed entry. val holds the result bytes in the memory
// tier; the disk tier's index keeps it nil (the bytes live in files).
type lruEntry struct {
	key  string
	size int64
	val  []byte
}

func newLRU(maxEntries int, maxBytes int64) lru {
	return lru{maxEntries: maxEntries, maxBytes: maxBytes, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the value stored under key and marks it most recently used.
func (l *lru) get(key string) ([]byte, bool) {
	el, ok := l.items[key]
	if !ok {
		return nil, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put stores key as the most recently used entry, replacing the size and
// value of an existing one. It never evicts; call evict after.
func (l *lru) put(key string, size int64, val []byte) {
	if el, ok := l.items[key]; ok {
		e := el.Value.(*lruEntry)
		l.bytes += size - e.size
		e.size, e.val = size, val
		l.ll.MoveToFront(el)
		return
	}
	l.items[key] = l.ll.PushFront(&lruEntry{key: key, size: size, val: val})
	l.bytes += size
}

// remove drops key from the index, if present.
func (l *lru) remove(key string) {
	if el, ok := l.items[key]; ok {
		l.ll.Remove(el)
		delete(l.items, key)
		l.bytes -= el.Value.(*lruEntry).size
	}
}

// evict drops least-recently-used entries until both bounds hold, never
// the most recent entry, handing each to drop (when non-nil). It returns
// how many were dropped.
func (l *lru) evict(drop func(*lruEntry)) uint64 {
	var n uint64
	for (l.maxEntries > 0 && l.ll.Len() > l.maxEntries) || (l.maxBytes > 0 && l.bytes > l.maxBytes) {
		tail := l.ll.Back()
		if tail == nil || tail == l.ll.Front() {
			break
		}
		e := tail.Value.(*lruEntry)
		l.remove(e.key)
		if drop != nil {
			drop(e)
		}
		n++
	}
	return n
}

// Cache is blitzd's result tier stack: a memory LRU over an optional disk
// Store. A hit serves the marshaled result bytes verbatim, so every hit is
// byte-identical to the computation that produced them. The memory lock is
// never held across disk I/O. All methods are safe for concurrent use.
type Cache struct {
	disk *Store // nil: memory only

	mu                      sync.Mutex
	mem                     lru
	hits, misses, evictions uint64
}

// CacheStats is a snapshot of both tiers for /metrics. Hits and Misses
// count memory-tier lookups; Disk is nil when there is no disk tier.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
	Bytes                   int64
	Disk                    *Stats
}

// NewCache builds the tier stack: a memory LRU bounded to maxEntries
// results and maxBytes result bytes (either <= 0 disables that bound) over
// disk, which may be nil for a memory-only cache.
func NewCache(maxEntries int, maxBytes int64, disk *Store) *Cache {
	return &Cache{disk: disk, mem: newLRU(maxEntries, maxBytes)}
}

// Get returns the bytes stored under key and the tier that served them,
// "memory" or "disk". A disk hit is promoted into memory so the next asker
// skips the read.
func (c *Cache) Get(key string) ([]byte, string, bool) {
	c.mu.Lock()
	b, ok := c.mem.get(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if ok {
		return b, "memory", true
	}
	if c.disk != nil {
		if b, ok = c.disk.Get(key); ok {
			c.putMemory(key, b)
			return b, "disk", true
		}
	}
	return nil, "", false
}

// Has reports whether either tier holds key. It is a presence check: it
// counts nothing, promotes nothing and reads no blob.
func (c *Cache) Has(key string) bool {
	c.mu.Lock()
	_, ok := c.mem.items[key]
	c.mu.Unlock()
	return ok || (c.disk != nil && c.disk.has(key))
}

// Put stores b under key in memory, then on disk if there is a disk tier.
// The returned error is the disk write's: the memory tier cannot fail, and
// a failed persist leaves the result cached in memory only.
func (c *Cache) Put(key, kind string, b []byte) error {
	c.putMemory(key, b)
	if c.disk == nil {
		return nil
	}
	return c.disk.Put(key, kind, b)
}

func (c *Cache) putMemory(key string, b []byte) {
	c.mu.Lock()
	c.mem.put(key, int64(len(b)), b)
	c.evictions += c.mem.evict(nil)
	c.mu.Unlock()
}

// Stats snapshots both tiers.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	st := CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.mem.ll.Len(), Bytes: c.mem.bytes}
	c.mu.Unlock()
	if c.disk != nil {
		d := c.disk.Stats()
		st.Disk = &d
	}
	return st
}
