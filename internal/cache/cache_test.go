package cache

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ipra/internal/ir"
	"ipra/internal/summary"
)

func testModule(name string) *ir.Module {
	return &ir.Module{
		Name:    name,
		Globals: []*ir.Global{{Name: "g", Module: name, Size: 4, Defined: true, Scalar: true}},
	}
}

func testSummary(name string) *summary.ModuleSummary {
	return &summary.ModuleSummary{
		Module: name,
		Procs:  []summary.ProcRecord{{Name: "main", Module: name, CalleeSavesNeeded: 3}},
	}
}

func TestSourceKeyComponents(t *testing.T) {
	base := SourceKey("m.mc", []byte("int g;"), "v1")
	if SourceKey("m.mc", []byte("int g;"), "v1") != base {
		t.Error("identical inputs must hash identically")
	}
	if SourceKey("n.mc", []byte("int g;"), "v1") == base {
		t.Error("name must be part of the key")
	}
	if SourceKey("m.mc", []byte("int h;"), "v1") == base {
		t.Error("source text must be part of the key")
	}
	if SourceKey("m.mc", []byte("int g;"), "v2") == base {
		t.Error("fingerprint must be part of the key")
	}
	// Length-prefixing keeps field boundaries unambiguous.
	if SourceKey("ab", []byte("c"), "") == SourceKey("a", []byte("bc"), "") {
		t.Error("shifting bytes between name and text must change the key")
	}
}

var ctx = context.Background()

func TestGetReturnsIsolatedCopies(t *testing.T) {
	c := New(8)
	k := SourceKey("m.mc", []byte("x"), "")
	c.Put(ctx, k, testModule("m.mc"), testSummary("m.mc"))

	m1, s1, _, ok := c.Get(ctx, k)
	if !ok {
		t.Fatal("expected hit")
	}
	// Corrupt the first copies; later hits must be unaffected.
	m1.Globals[0].Name = "corrupted"
	s1.Procs[0].CalleeSavesNeeded = 99

	m2, s2, _, ok := c.Get(ctx, k)
	if !ok {
		t.Fatal("expected second hit")
	}
	if m2.Globals[0].Name != "g" {
		t.Errorf("cached module shares memory with a previous Get: global = %q", m2.Globals[0].Name)
	}
	if s2.Procs[0].CalleeSavesNeeded != 3 {
		t.Errorf("cached summary shares memory with a previous Get: need = %d", s2.Procs[0].CalleeSavesNeeded)
	}
}

func TestMissAndStats(t *testing.T) {
	c := New(8)
	if _, _, _, ok := c.Get(ctx, SourceKey("absent", nil, "")); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	k := SourceKey("m.mc", []byte("x"), "")
	c.Put(ctx, k, testModule("m.mc"), testSummary("m.mc"))
	c.Get(ctx, k)
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 entry", s)
	}
	c.Reset()
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("after Reset, stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	ka := SourceKey("a", nil, "")
	kb := SourceKey("b", nil, "")
	kc := SourceKey("c", nil, "")
	for _, k := range []Key{ka, kb} {
		c.Put(ctx, k, testModule("m"), testSummary("m"))
	}
	c.Get(ctx, ka) // b is now least recently used
	c.Put(ctx, kc, testModule("m"), testSummary("m"))
	if _, _, _, ok := c.Get(ctx, kb); ok {
		t.Error("least recently used entry b should have been evicted")
	}
	if _, _, _, ok := c.Get(ctx, ka); !ok {
		t.Error("recently used entry a should have survived")
	}
	if _, _, _, ok := c.Get(ctx, kc); !ok {
		t.Error("new entry c should be present")
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
}

// TestLRUOrderUnderChurn drives a larger cache through interleaved Puts,
// re-Puts, and Gets and checks that eviction follows exact LRU order.
func TestLRUOrderUnderChurn(t *testing.T) {
	const n = 8
	c := New(n)
	key := func(i int) Key { return SourceKey(fmt.Sprintf("m%d", i), nil, "") }
	for i := 0; i < n; i++ {
		c.Put(ctx, key(i), testModule("m"), testSummary("m"))
	}
	// Touch half the entries (mix of Get and re-Put); the untouched half
	// must then be evicted first, in their original insertion order.
	for i := 0; i < n; i += 2 {
		if i%4 == 0 {
			c.Get(ctx, key(i))
		} else {
			c.Put(ctx, key(i), testModule("m"), testSummary("m"))
		}
	}
	for round, i := 0, 1; i < n; round, i = round+1, i+2 {
		c.Put(ctx, key(n+round), testModule("m"), testSummary("m"))
		if _, _, _, ok := c.Get(ctx, key(i)); ok {
			t.Fatalf("entry %d survived; expected it evicted on round %d", i, round)
		}
	}
	for i := 0; i < n; i += 2 {
		if _, _, _, ok := c.Get(ctx, key(i)); !ok {
			t.Errorf("recently used entry %d was evicted", i)
		}
	}
	if s := c.Stats(); s.Entries != n {
		t.Errorf("entries = %d, want %d", s.Entries, n)
	}
}

func TestEntryFileRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.p1")
	m, ms := testModule("m.mc"), testSummary("m.mc")
	if err := os.WriteFile(path, EncodeEntry(m, ms), 0o644); err != nil {
		t.Fatal(err)
	}
	read := func() (*ir.Module, *summary.ModuleSummary) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		gm, gms, err := DecodeEntry(data)
		if err != nil {
			t.Fatal(err)
		}
		return gm, gms
	}
	gm, gms := read()
	if !reflect.DeepEqual(gm, m) || !reflect.DeepEqual(gms, ms) {
		t.Error("entry file roundtrip lost data")
	}
	// Decoded copies must be private.
	gm.Globals[0].Name = "corrupted"
	if gm2, _ := read(); gm2.Globals[0].Name != "g" {
		t.Error("reread entry shares memory with a previous read")
	}
	data := EncodeEntry(m, ms)
	if _, _, err := DecodeEntry(data[:len(data)-1]); err == nil {
		t.Error("truncated entry must error")
	}
	if got, err := DecodeSummary(data); err != nil || !reflect.DeepEqual(got, ms) {
		t.Errorf("DecodeSummary = %+v, %v; want the entry's summary", got, err)
	}
	if _, err := DecodeSummary(data[:len(data)/4]); err == nil {
		t.Error("an entry truncated inside its summary must error")
	}

	// The bytes Put returns, and a hit hands back, are the entry's
	// encoding: the record the build directory stores.
	c := New(8)
	k := SourceKey("m.mc", nil, "")
	if put := c.Put(ctx, k, m, ms); !bytes.Equal(put, data) {
		t.Error("Put returned bytes other than EncodeEntry's")
	}
	if _, _, got, ok := c.Get(ctx, k); !ok || !bytes.Equal(got, data) {
		t.Errorf("Get returned other bytes than EncodeEntry's (hit %v)", ok)
	}
}

// TestStatsConcurrent polls Stats while workers hammer Get and Put — the
// race detector flags any counter read that is not synchronized with the
// hot-path increments. It also checks the final tallies add up.
func TestStatsConcurrent(t *testing.T) {
	c := New(8)
	m, ms := testModule("m"), testSummary("m")
	const workers, opsPerWorker = 4, 200

	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Stats()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				k := SourceKey(fmt.Sprintf("m%d", (w*opsPerWorker+i)%16), nil, "")
				if _, _, _, ok := c.Get(ctx, k); !ok {
					c.Put(ctx, k, m, ms)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	poller.Wait()

	s := c.Stats()
	if s.Hits+s.Misses != workers*opsPerWorker {
		t.Errorf("hits %d + misses %d != %d lookups", s.Hits, s.Misses, workers*opsPerWorker)
	}
	if s.Entries > 8 {
		t.Errorf("cache holds %d entries, max 8", s.Entries)
	}
}

// BenchmarkPutFullCache measures Put into a cache at capacity, where every
// insert evicts. The pre-LRU-list implementation rescanned all entries on
// each eviction (O(n) per Put); the LRU list pops the tail in O(1), which
// this benchmark demonstrates at a size where the scan dominated.
func BenchmarkPutFullCache(b *testing.B) {
	const size = 4096
	c := New(size)
	m, ms := testModule("m"), testSummary("m")
	keys := make([]Key, size+b.N)
	for i := range keys {
		keys[i] = SourceKey(fmt.Sprintf("m%d", i), nil, "")
	}
	for i := 0; i < size; i++ {
		c.Put(ctx, keys[i], m, ms)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(ctx, keys[size+i], m, ms)
	}
}
