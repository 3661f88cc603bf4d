package store

import (
	"bytes"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func quiet() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
}

func openT(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, "test-engine", maxBytes, quiet())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	blob := []byte(`{"rows":[1,2,3]}`)
	if err := s.Put("hash-1", "exchange", blob); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get("hash-1")
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("Get = %q, %v; want the stored bytes", got, ok)
	}
	if _, ok := s.Get("hash-2"); ok {
		t.Fatal("Get returned a miss key")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	// No temp-file residue after a clean write.
	matches, _ := filepath.Glob(filepath.Join(dir, "*", "tmp-*"))
	if len(matches) != 0 {
		t.Errorf("temp files left behind: %v", matches)
	}
}

func TestSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	blob := []byte(`{"meta":{"options_hash":"abc"}}`)
	if err := s.Put("hash-1", "figure", blob); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.Close()

	// A new store over the same directory serves the same bytes, both
	// before the warm scan finishes (direct probe) and after.
	s2 := openT(t, dir, 0)
	got, ok := s2.Get("hash-1")
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("restart Get = %q, %v", got, ok)
	}
	s2.Close() // wait for warm
	got, ok = s2.Get("hash-1")
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("post-warm Get = %q, %v", got, ok)
	}
	if st := s2.Stats(); st.Entries != 1 || !st.Warmed {
		t.Errorf("post-warm stats = %+v", st)
	}
}

func TestEngineNamespacing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "engine-1", 0, quiet())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("hash-1", "exchange", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir, "engine-2", 0, quiet())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get("hash-1"); ok {
		t.Fatal("engine-2 store served an engine-1 blob")
	}
}

func TestCorruptBlobDropped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	if err := s.Put("hash-1", "exchange", []byte("good bytes")); err != nil {
		t.Fatal(err)
	}
	// Flip the blob on disk behind the store's back.
	digest := s.digest("hash-1")
	if err := os.WriteFile(s.blobPath(digest), []byte("evil bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("hash-1"); ok {
		t.Fatal("Get served a corrupt blob")
	}
	st := s.Stats()
	if st.Corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
	}
	// The pair is gone from disk too.
	if _, err := os.Stat(s.blobPath(digest)); !os.IsNotExist(err) {
		t.Errorf("corrupt blob still on disk: %v", err)
	}
}

// TestCorruptBlobConcurrentGets races eight Gets of one corrupt pair
// against traffic on other keys (run under -race): every Get of the corrupt
// pair misses, the pair is dropped and counted once, and the other keys
// keep serving their own bytes while the blob reads run outside the lock.
func TestCorruptBlobConcurrentGets(t *testing.T) {
	s := openT(t, t.TempDir(), 0)
	s.warmWG.Wait()
	if err := s.Put("bad", "exchange", []byte("good bytes")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.blobPath(s.digest("bad")), []byte("evil bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if b, ok := s.Get("bad"); ok {
				t.Errorf("Get served a corrupt blob: %q", b)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("k%d", (g+i)%6)
				if err := s.Put(key, "exchange", []byte(key)); err != nil {
					t.Errorf("Put(%s): %v", key, err)
				}
				if b, ok := s.Get(key); !ok || string(b) != key {
					t.Errorf("Get(%s) = %q, %v", key, b, ok)
				}
				s.Stats()
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if st := s.Stats(); st.Corrupt != 1 || st.Misses != 8 || st.Entries != 6 {
		t.Errorf("stats = %+v, want Corrupt 1, Misses 8, Entries 6", st)
	}
}

func TestGCEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	blob := bytes.Repeat([]byte("x"), 100)
	s := openT(t, dir, 250) // fits two 100-byte blobs, not three
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("hash-%d", i), "exchange", blob); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get("hash-0"); ok {
		t.Fatal("oldest entry survived GC")
	}
	for _, k := range []string{"hash-1", "hash-2"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("%s evicted, want newest two kept", k)
		}
	}
	if st := s.Stats(); st.Evictions != 1 || st.Bytes > 250 {
		t.Errorf("stats = %+v", st)
	}

	// Touching hash-1 then inserting another entry evicts hash-2, not
	// the freshly used hash-1.
	if _, ok := s.Get("hash-1"); !ok {
		t.Fatal("hash-1 missing")
	}
	if err := s.Put("hash-3", "exchange", blob); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("hash-2"); ok {
		t.Fatal("LRU eviction ignored recency")
	}
	if _, ok := s.Get("hash-1"); !ok {
		t.Fatal("recently used entry evicted")
	}
}

func TestWarmGCAndOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	blob := bytes.Repeat([]byte("y"), 100)
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("hash-%d", i), "exchange", blob); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Simulate a crashed write: a stray temp file and an orphan blob.
	if err := os.WriteFile(filepath.Join(dir, "tmp-crashed"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "ff")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(orphan, strings.Repeat("f", 64)+".blob"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen with a bound that only fits two entries: warm must index,
	// then GC down to the bound.
	s2 := openT(t, dir, 250)
	s2.Close()
	st := s2.Stats()
	if st.Entries != 2 || st.Bytes > 250 {
		t.Errorf("post-warm stats = %+v, want 2 entries within 250 bytes", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "tmp-crashed")); !os.IsNotExist(err) {
		t.Error("temp residue survived the warm sweep")
	}
}

// TestWarmConcurrentWithTraffic races the boot scan against incoming
// gets and puts — the shape of a daemon restarted under live traffic.
// Run under -race this is the boot/request data-race gate.
func TestWarmConcurrentWithTraffic(t *testing.T) {
	dir := t.TempDir()
	seed := openT(t, dir, 0)
	blob := bytes.Repeat([]byte("z"), 64)
	const preloaded = 50
	for i := 0; i < preloaded; i++ {
		if err := seed.Put(fmt.Sprintf("old-%d", i), "exchange", blob); err != nil {
			t.Fatal(err)
		}
	}
	seed.Close()

	s := openT(t, dir, 0) // warm scan races the traffic below
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < preloaded; i++ {
				if b, ok := s.Get(fmt.Sprintf("old-%d", i)); !ok || !bytes.Equal(b, blob) {
					t.Errorf("goroutine %d: old-%d = %v, %v", g, i, len(b), ok)
					return
				}
				if err := s.Put(fmt.Sprintf("new-%d-%d", g, i), "exchange", blob); err != nil {
					t.Errorf("goroutine %d: put: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s.Close()
	st := s.Stats()
	if want := preloaded + 8*preloaded; st.Entries != want {
		t.Errorf("entries = %d, want %d", st.Entries, want)
	}
}

func TestPutOverwrite(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	if err := s.Put("hash-1", "exchange", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("hash-1", "exchange", []byte("second, longer")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("hash-1")
	if !ok || string(got) != "second, longer" {
		t.Fatalf("Get after overwrite = %q, %v", got, ok)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Bytes != int64(len("second, longer")) {
		t.Errorf("stats after overwrite = %+v", st)
	}
}

func TestCacheMemoryOnly(t *testing.T) {
	c := NewCache(2, 0, nil)
	if _, _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := c.Put(k, "exchange", []byte(k)); err != nil {
			t.Fatalf("memory-only Put: %v", err)
		}
	}
	if _, _, ok := c.Get("a"); ok {
		t.Error("least-recently-used entry survived the entry bound")
	}
	if b, tier, ok := c.Get("c"); !ok || tier != "memory" || string(b) != "c" {
		t.Errorf("Get(c) = %q, %q, %v", b, tier, ok)
	}
	if !c.Has("b") || c.Has("a") {
		t.Error("Has disagrees with the resident entries")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Evictions != 1 || st.Entries != 2 || st.Bytes != 2 || st.Disk != nil {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheByteBoundKeepsNewest(t *testing.T) {
	c := NewCache(0, 4, nil)
	c.Put("small", "exchange", []byte("ab"))
	c.Put("big", "exchange", []byte("0123456789"))
	if c.Has("small") || !c.Has("big") {
		t.Error("byte bound must evict older entries but never the newest")
	}
}

func TestCacheDiskTierPromotes(t *testing.T) {
	dir := t.TempDir()
	disk := openT(t, dir, 0)
	if err := disk.Put("k", "exchange", []byte("blob")); err != nil {
		t.Fatal(err)
	}
	disk.Close()

	disk = openT(t, dir, 0)
	c := NewCache(8, 0, disk)
	if !c.Has("k") {
		t.Fatal("Has missed a disk-only entry")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 || st.Disk.Hits != 0 {
		t.Fatalf("Has counted or promoted: %+v / %+v", st, *st.Disk)
	}
	if b, tier, ok := c.Get("k"); !ok || tier != "disk" || string(b) != "blob" {
		t.Fatalf("first Get = %q, %q, %v; want a disk hit", b, tier, ok)
	}
	if _, tier, _ := c.Get("k"); tier != "memory" {
		t.Errorf("second Get tier = %q; want memory after promotion", tier)
	}
	if err := c.Put("n", "exchange", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if b, ok := disk.Get("n"); !ok || string(b) != "new" {
		t.Error("Put did not write through to the disk tier")
	}
	if _, _, ok := c.Get("absent"); ok {
		t.Error("hit on a key in neither tier")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Disk.Hits != 2 || st.Disk.Misses != 1 || st.Disk.Writes != 1 {
		t.Errorf("stats = %+v / %+v", st, *st.Disk)
	}
}

// TestCacheConcurrent drives both tiers from several goroutines at once
// (run under -race): lookups, presence checks, promotions and writes
// through to disk, with a memory bound small enough to evict constantly.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(3, 0, openT(t, t.TempDir(), 0))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", (g+i)%8)
				if b, _, ok := c.Get(key); ok && string(b) != key {
					t.Errorf("Get(%s) = %q", key, b)
				}
				c.Has(key)
				if err := c.Put(key, "exchange", []byte(key)); err != nil {
					t.Errorf("Put: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries != 3 || st.Disk.Entries != 8 {
		t.Errorf("stats = %+v / %+v", st, *st.Disk)
	}
}
