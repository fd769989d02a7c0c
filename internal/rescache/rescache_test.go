package rescache

import (
	"sync"
	"sync/atomic"
	"testing"

	"cds/internal/app"
	"cds/internal/arch"
)

func testPart(t testing.TB, name string, inSize int) *app.Partition {
	t.Helper()
	b := app.NewBuilder(name, 4).
		Datum("in", inSize).
		Datum("out", 32)
	b.Kernel("k", 16, 100).In("in").Out("out")
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := app.NewPartition(a, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestKeyOfContentAddressing(t *testing.T) {
	pa := arch.M1()
	p := testPart(t, "key", 128)
	q := testPart(t, "key", 128) // distinct pointer, same content
	if KeyOf(pa, p, "t") != KeyOf(pa, q, "t") {
		t.Error("structurally identical partitions produced different keys")
	}

	distinct := map[string]Key{
		"base":              KeyOf(pa, p, "t"),
		"other tag":         KeyOf(pa, p, "t2"),
		"FB size":           KeyOf(pa.WithFB(4096), p, "t"),
		"CM words":          keyWith(pa, p, func(m *arch.Params) { m.CMWords = 2048 }),
		"bus bytes":         keyWith(pa, p, func(m *arch.Params) { m.BusBytes = 8 }),
		"DMA setup":         keyWith(pa, p, func(m *arch.Params) { m.DMASetupCycles = 8 }),
		"geometry":          keyWith(pa, p, func(m *arch.Params) { m.Rows = 16 }),
		"datum size":        KeyOf(pa, testPart(t, "key", 256), "t"),
		"partition content": KeyOf(pa, testPart(t, "key2", 128), "t"),
	}
	seen := map[Key]string{}
	for what, k := range distinct {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s share a key; every spec field must enter the fingerprint", what, prev)
		}
		seen[k] = what
	}
}

func keyWith(pa arch.Params, p *app.Partition, mut func(*arch.Params)) Key {
	mut(&pa)
	return KeyOf(pa, p, "t")
}

// TestSingleflightHammer drives one key from 32 goroutines under -race:
// exactly one computation, everyone sees its value, and the counters
// add up.
func TestSingleflightHammer(t *testing.T) {
	c := New("test.hammer", 16)
	key := KeyOf(arch.M1(), testPart(t, "hammer", 64), "hammer")
	var computations atomic.Int64
	const goroutines = 32
	results := make([]any, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = c.Do(key, func() (any, bool) {
				computations.Add(1)
				return "value", true
			})
		}(g)
	}
	wg.Wait()
	if n := computations.Load(); n != 1 {
		t.Errorf("computed %d times, want 1 (singleflight)", n)
	}
	for g, r := range results {
		if r != "value" {
			t.Fatalf("goroutine %d got %v", g, r)
		}
	}
	hits, misses, _ := c.Stats()
	if misses != 1 || hits != goroutines-1 {
		t.Errorf("hits=%d misses=%d, want %d/1", hits, misses, goroutines-1)
	}
}

func TestNonCacheableOutcomesRecompute(t *testing.T) {
	c := New("test.noncacheable", 16)
	key := KeyOf(arch.M1(), testPart(t, "nc", 64), "nc")
	var n atomic.Int64
	compute := func() (any, bool) {
		return n.Add(1), false // e.g. a canceled computation
	}
	if v := c.Do(key, compute); v != int64(1) {
		t.Fatalf("first Do = %v", v)
	}
	if v := c.Do(key, compute); v != int64(2) {
		t.Errorf("non-cacheable outcome was served from cache: %v", v)
	}
	if c.Len() != 0 {
		t.Errorf("non-cacheable entries linger: Len=%d", c.Len())
	}
}

// TestNonCacheableOutcomesNeverEvict: at the bound, a computation whose
// outcome is dropped leaves every resident entry in place.
func TestNonCacheableOutcomesNeverEvict(t *testing.T) {
	c := New("test.noevict", 2)
	pa := arch.M1()
	p := testPart(t, "noevict", 64)
	k1, k2, k3 := KeyOf(pa, p, "1"), KeyOf(pa, p, "2"), KeyOf(pa, p, "3")
	c.Do(k1, func() (any, bool) { return "a", true })
	c.Do(k2, func() (any, bool) { return "b", true })
	c.Do(k3, func() (any, bool) { return "rejected", false })
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	for _, k := range []Key{k1, k2} {
		if _, ok := c.Get(k); !ok {
			t.Error("a non-cacheable outcome evicted a resident entry")
		}
	}
	if _, _, ev := c.Stats(); ev != 0 {
		t.Errorf("evictions = %d, want 0", ev)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New("test.lru", 2)
	pa := arch.M1()
	p := testPart(t, "lru", 64)
	k1, k2, k3 := KeyOf(pa, p, "1"), KeyOf(pa, p, "2"), KeyOf(pa, p, "3")
	val := func(s string) func() (any, bool) { return func() (any, bool) { return s, true } }
	c.Do(k1, val("a"))
	c.Do(k2, val("b"))
	c.Do(k1, val("a")) // touch k1: k2 is now least recently used
	c.Do(k3, val("c")) // evicts k2
	if _, ok := c.Get(k2); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	if v, ok := c.Get(k1); !ok || v != "a" {
		t.Error("recently-used entry was evicted")
	}
	if _, _, ev := c.Stats(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestDisableBypassesCache(t *testing.T) {
	c := New("test.disable", 16)
	key := KeyOf(arch.M1(), testPart(t, "dis", 64), "dis")
	var n atomic.Int64
	compute := func() (any, bool) { return n.Add(1), true }
	c.Do(key, compute)
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	if v := c.Do(key, compute); v != int64(2) {
		t.Errorf("disabled cache still served a hit: %v", v)
	}
	if _, ok := c.Get(key); ok {
		t.Error("disabled cache answered Get")
	}
}
