package runcache

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// strCodec is a trivial string codec for exercising the disk tier
// without dragging in a real result type.
type strCodec struct{}

func (strCodec) Encode(v any) ([]byte, bool) {
	s, ok := v.(string)
	if !ok {
		return nil, false
	}
	return []byte(s), true
}

func (strCodec) Decode(data []byte) (any, error) {
	return string(data), nil
}

func testKey(tag string) string {
	h := NewHasher("disk-test/v1")
	h.Field(tag)
	return h.Sum()
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("rt")
	if _, err := s.Get(key); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Get on empty store = %v, want ErrNotExist", err)
	}
	payload := []byte("the quick brown byzantine general")
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("Get = (%q, %v), want the stored payload", got, err)
	}
	// Put on an existing key is a no-op, never an error.
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("re-Put: %v", err)
	}
	n, bytes, err := s.Len()
	if err != nil || n != 1 || bytes == 0 {
		t.Fatalf("Len = (%d, %d, %v), want 1 blob with nonzero size", n, bytes, err)
	}
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Get after Delete = %v, want ErrNotExist", err)
	}
	// Deleting an absent key is fine.
	if err := s.Delete(key); err != nil {
		t.Fatalf("double Delete: %v", err)
	}
}

func TestOpenStoreEmptyDir(t *testing.T) {
	if _, err := OpenStore(""); err == nil {
		t.Fatal("OpenStore(\"\") succeeded, want error")
	}
}

// blobFile locates the single .blob file under dir.
func blobFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*", "*.blob"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one blob under %s, got %v (%v)", dir, matches, err)
	}
	return matches[0]
}

// TestStoreCorruption damages a valid blob in every way the frame
// protects against and asserts each is reported as *CorruptError, never
// as a valid read or a panic.
func TestStoreCorruption(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bit flip in payload", func(b []byte) []byte {
			b[len(b)/2] ^= 0x40
			return b
		}},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xde, 0xad) }},
		{"bad magic", func(b []byte) []byte {
			b[0] ^= 0xff
			return b
		}},
		{"empty file", func(b []byte) []byte { return nil }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			key := testKey(m.name)
			if err := s.Put(key, []byte("a payload long enough to damage meaningfully")); err != nil {
				t.Fatal(err)
			}
			path := blobFile(t, dir)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, m.mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = s.Get(key)
			if err == nil {
				t.Fatal("Get returned a damaged blob as valid")
			}
			if !isCorrupt(err) {
				t.Fatalf("Get = %v, want *CorruptError", err)
			}
		})
	}
}

// TestCrossCacheDiskHit is the cross-process reuse contract in
// miniature: two independent Cache instances (stand-ins for two
// processes) share one store; the second serves from disk without
// running its compute function.
func TestCrossCacheDiskHit(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("cross")

	c1 := New()
	defer c1.SetStore(store, strCodec{})()
	if v, _, err := c1.Do(key, func() (any, error) { return "computed-once", nil }); err != nil || v != "computed-once" {
		t.Fatalf("first process Do = (%v, %v)", v, err)
	}
	if st := c1.Stats(); st.DiskWrites != 1 {
		t.Fatalf("first process wrote %d blobs, want 1: %+v", st.DiskWrites, st)
	}

	c2 := New()
	defer c2.SetStore(store, strCodec{})()
	v, how, err := c2.Do(key, func() (any, error) {
		t.Error("second process computed despite a warm disk tier")
		return nil, errors.New("unreachable")
	})
	if err != nil || v != "computed-once" || how != DiskHit {
		t.Fatalf("second process Do = (%v, %v, %v), want the disk-served value", v, how, err)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("second process stats = %+v, want DiskHits 1 / Misses 0", st)
	}
	// The disk-served value is now L1-resident: a third lookup is a pure
	// memory hit with no new disk traffic.
	c2.Do(key, func() (any, error) { return nil, errors.New("unreachable") })
	st = c2.Stats()
	if st.Hits != 1 || st.DiskHits != 1 {
		t.Fatalf("third lookup stats = %+v, want the disk hit promoted to L1", st)
	}
}

// TestCorruptBlobRecovery: a damaged blob must read as a miss — the
// cache recomputes, deletes the bad blob, and rewrites a good one.
func TestCorruptBlobRecovery(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("recover")
	c1 := New()
	restore := c1.SetStore(store, strCodec{})
	c1.Do(key, func() (any, error) { return "good", nil })
	restore()

	path := blobFile(t, dir)
	raw, _ := os.ReadFile(path)
	raw[len(raw)-3] ^= 0x01 // flip a digest bit
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := New()
	defer c2.SetStore(store, strCodec{})()
	calls := 0
	v, _, err := c2.Do(key, func() (any, error) { calls++; return "recomputed", nil })
	if err != nil || v != "recomputed" || calls != 1 {
		t.Fatalf("Do over corrupt blob = (%v, %v, calls %d), want recompute", v, err, calls)
	}
	st := c2.Stats()
	if st.DiskCorrupt != 1 {
		t.Fatalf("stats = %+v, want DiskCorrupt 1", st)
	}
	// The corrupt blob was deleted and replaced by the recomputed value.
	got, err := store.Get(key)
	if err != nil || string(got) != "recomputed" {
		t.Fatalf("store after recovery = (%q, %v), want rewritten blob", got, err)
	}
}

// TestResetKeepsDisk: Reset clears L1 only; the blob store must still
// serve the key afterwards.
func TestResetKeepsDisk(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	defer c.SetStore(store, strCodec{})()
	key := testKey("reset")
	c.Do(key, func() (any, error) { return "persisted", nil })
	c.Reset()
	v, _, err := c.Do(key, func() (any, error) {
		t.Error("computed despite a warm disk tier surviving Reset")
		return nil, errors.New("unreachable")
	})
	if err != nil || v != "persisted" {
		t.Fatalf("post-Reset Do = (%v, %v), want disk-served value", v, err)
	}
	if st := c.Stats(); st.DiskHits != 1 {
		t.Fatalf("post-Reset stats = %+v, want DiskHits 1", st)
	}
}

// TestSetStoreRestore: the restore function returned by SetStore
// reinstates the previous tier (none), after which lookups are pure L1.
func TestSetStoreRestore(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	restore := c.SetStore(store, strCodec{})
	if c.Store() != store {
		t.Fatal("Store() does not report the installed store")
	}
	restore()
	if c.Store() != nil {
		t.Fatal("restore left the disk tier installed")
	}
	key := testKey("restore")
	c.Do(key, func() (any, error) { return "memory-only", nil })
	if _, err := store.Get(key); !errors.Is(err, ErrNotExist) {
		t.Fatalf("uninstalled store received a write: %v", err)
	}
}

func TestDefaultDir(t *testing.T) {
	t.Setenv("FLM_CACHE_DIR", "/tmp/flm-cache-test")
	if got := DefaultDir(); got != "/tmp/flm-cache-test" {
		t.Fatalf("DefaultDir with FLM_CACHE_DIR set = %q", got)
	}
	for _, off := range []string{"off", "OFF", "0", "none", "false", "no"} {
		t.Setenv("FLM_CACHE_DIR", off)
		if got := DefaultDir(); got != "" {
			t.Fatalf("DefaultDir with FLM_CACHE_DIR=%q = %q, want disabled", off, got)
		}
	}
	t.Setenv("FLM_CACHE_DIR", "")
	got := DefaultDir()
	if ucd, err := os.UserCacheDir(); err == nil {
		if want := filepath.Join(ucd, "flm"); got != want {
			t.Fatalf("DefaultDir unset = %q, want %q", got, want)
		}
	} else if got != "" {
		t.Fatalf("DefaultDir with no user cache dir = %q, want \"\"", got)
	}
}
