// Package rescache is a fingerprint-keyed result cache for full
// scheduler outcomes. The paper's evaluation — and the ROADMAP's schedd
// workload — re-runs identical (arch, partition) comparison points by
// construction: design-space sweeps revisit grid points, retried
// requests re-pose the same spec, and batch grids cross few archs with
// few workloads. Every scheduler in this module is a pure function of
// the spec, so a comparison computed once is a comparison computed
// forever; this cache keys on deterministic content fingerprints (see
// KeyOf) and makes re-posing a solved point O(hash).
//
// Each cache combines a bounded LRU with per-key singleflight:
// concurrent first requesters of one key share a single computation,
// and the bound keeps long-lived daemons from pinning every spec ever
// seen. A process-wide expvar ("rescache") snapshots hit/miss/eviction
// counters for every cache.
package rescache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"expvar"
	"sync"
	"sync/atomic"

	"cds/internal/app"
	"cds/internal/arch"
)

// Key is a content fingerprint: what a cached value is a pure function
// of. Build it with KeyOf.
type Key [32]byte

// KeyOf fingerprints a (machine, partition) pair plus a caller tag that
// names (and versions) the computation, e.g. "compare-all/v1". Distinct
// tags never collide, so many result kinds can share one cache.
//
// Every Params field enters the hash: any machine change — FB set size,
// CM capacity, bus width, geometry — is a different key. The partition
// contributes its canonical content fingerprint, so structurally equal
// specs hit regardless of pointer identity.
func KeyOf(pa arch.Params, part *app.Partition, tag string) Key {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	num := func(v int) {
		n := binary.PutUvarint(buf[:], uint64(int64(v)))
		h.Write(buf[:n])
	}
	str := func(s string) {
		num(len(s))
		h.Write([]byte(s))
	}
	str("cds/rescache/v1")
	str(tag)
	str(pa.Name)
	num(pa.FBSetBytes)
	num(pa.FBSets)
	num(pa.CMWords)
	num(pa.BusBytes)
	num(pa.DMASetupCycles)
	num(pa.CtxWordBytes)
	num(pa.Rows)
	num(pa.Cols)
	fp := part.Fingerprint()
	h.Write(fp[:])
	var k Key
	h.Sum(k[:0])
	return k
}

// enabled gates every cache in the process. Benchmarks and golden tests
// flip it off to measure/verify the uncached pipeline.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns result caching on or off process-wide and returns
// the previous setting. Disabling does not drop existing entries; it
// only bypasses them.
func SetEnabled(on bool) (prev bool) { return enabled.Swap(on) }

// Enabled reports whether result caching is active.
func Enabled() bool { return enabled.Load() }

// entry is one cached computation. done flips after compute finishes;
// keep records whether the outcome was cacheable (non-cacheable entries
// are removed once computed, after the in-flight sharers drain).
type entry struct {
	once sync.Once
	val  any
	keep bool
	done atomic.Bool
	elem *list.Element // position in Cache.order; guarded by Cache.mu
}

// Cache is one bounded LRU + singleflight table.
type Cache struct {
	name string
	max  int

	mu      sync.Mutex
	entries map[Key]*entry
	order   *list.List // of Key, least recently used first

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	// peerFills counts values obtained from a fleet peer's cache after a
	// local miss (cluster peer fill). A peer fill is accounted on top of
	// the local miss that triggered it — never as a local hit — so
	// hits/misses keep describing THIS cache's contents truthfully.
	peerFills atomic.Int64
}

var (
	registryMu  sync.Mutex
	registry    []*Cache
	publishOnce sync.Once
)

// publishExpvar registers the process-wide "rescache" var lazily, on
// the first New. One expvar serves every cache: Publish panics on
// duplicate names, so per-Cache vars would forbid multiple caches (and
// re-registration in tests), and the sync.Once guard makes New safe to
// call any number of times — two servers in one process, tests
// constructing caches repeatedly — where a second Publish would crash
// the process. A single Func snapshots the registry on demand.
func publishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("rescache", expvar.Func(func() any {
			registryMu.Lock()
			defer registryMu.Unlock()
			out := make(map[string]map[string]int64, len(registry))
			for _, c := range registry {
				hits, misses, evictions := c.Stats()
				out[c.name] = map[string]int64{
					"hits":       hits,
					"misses":     misses,
					"evictions":  evictions,
					"peer_fills": c.PeerFills(),
					"entries":    int64(c.Len()),
				}
			}
			return out
		}))
	})
}

// Counters is one cache's cumulative accounting, as surfaced by
// Snapshot (and mirrored by the "rescache" expvar).
type Counters struct {
	Hits      int64
	Misses    int64
	Evictions int64
	PeerFills int64
	Entries   int64
}

// Snapshot reports every registered cache's counters keyed by cache
// name. It backs plain-text metrics endpoints (schedd's /metrics) the
// same way the expvar backs /debug/vars; caches sharing a name collapse
// to the last registered, matching the expvar's behavior.
func Snapshot() map[string]Counters {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make(map[string]Counters, len(registry))
	for _, c := range registry {
		hits, misses, evictions := c.Stats()
		out[c.name] = Counters{
			Hits:      hits,
			Misses:    misses,
			Evictions: evictions,
			PeerFills: c.PeerFills(),
			Entries:   int64(c.Len()),
		}
	}
	return out
}

// New returns a cache holding at most max entries once its in-flight
// computations settle, registered under name in the process-wide
// "rescache" expvar.
func New(name string, max int) *Cache {
	publishExpvar()
	if max < 1 {
		max = 1
	}
	c := &Cache{
		name:    name,
		max:     max,
		entries: make(map[Key]*entry),
		order:   list.New(),
	}
	registryMu.Lock()
	registry = append(registry, c)
	registryMu.Unlock()
	return c
}

// Do returns the cached value for key, computing it at most once across
// concurrent callers. compute reports whether its outcome is cacheable;
// non-cacheable outcomes (cancellations, transient failures) are handed
// to their in-flight sharers but not kept, so a later call recomputes.
// When the cache is disabled process-wide, compute runs directly.
func (c *Cache) Do(key Key, compute func() (val any, cacheable bool)) any {
	if !enabled.Load() {
		v, _ := compute()
		return v
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.hits.Add(1)
		c.order.MoveToBack(e.elem)
	} else {
		c.misses.Add(1)
		e = &entry{}
		e.elem = c.order.PushBack(key)
		c.entries[key] = e
	}
	c.mu.Unlock()

	e.once.Do(func() {
		e.val, e.keep = compute()
		e.done.Store(true)
		if e.keep {
			c.trim()
		} else {
			c.remove(key, e)
		}
	})
	return e.val
}

// trim evicts least-recently-used entries down to the bound. It runs
// when a computation turns out cacheable, not when its key is first
// inserted: an outcome that is dropped anyway (a rejected request, a
// cancellation) never costs a resident entry its place.
func (c *Cache) trim() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.order.Len() > c.max {
		oldest := c.order.Remove(c.order.Front()).(Key)
		delete(c.entries, oldest)
		c.evictions.Add(1)
	}
}

// Get returns the completed cached value for key without computing
// anything. It misses while a computation is still in flight.
func (c *Cache) Get(key Key) (any, bool) {
	if !enabled.Load() {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok && e.done.Load() {
		c.hits.Add(1)
		c.order.MoveToBack(e.elem)
		c.mu.Unlock()
		return e.val, true
	}
	c.misses.Add(1)
	c.mu.Unlock()
	return nil, false
}

// remove drops an entry if it still maps to e (the key may have been
// evicted — and even re-inserted by a successor — while e computed).
func (c *Cache) remove(key Key, e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.entries[key]; ok && cur == e {
		delete(c.entries, key)
		c.order.Remove(e.elem)
	}
}

// Len reports the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats reports cumulative hit/miss/eviction counts.
func (c *Cache) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// NotePeerFill records that a local miss on this cache was answered by a
// fleet peer's cache instead of a recomputation. It does not touch the
// hit/miss counters: the lookup that preceded it already counted as a
// local miss, and counting the peer's answer as a local hit would make
// local hit rates lie. Per-source accounting is the point — "local"
// effectiveness is hits/(hits+misses), "peer" effectiveness is
// peer_fills/misses.
func (c *Cache) NotePeerFill() { c.peerFills.Add(1) }

// PeerFills reports how many local misses were answered by a peer.
func (c *Cache) PeerFills() int64 { return c.peerFills.Load() }
