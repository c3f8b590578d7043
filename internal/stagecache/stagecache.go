// Package stagecache is the content-addressed store behind the
// pipeline's Merkle stage cache. It knows nothing about stages: keys
// are opaque hex digests derived by internal/core (stage name ‖ version
// tag ‖ the config fields the stage actually reads ‖ sorted upstream
// keys — see core's key derivation), and values are the stage-output
// payloads core's per-stage codecs produce. Because a key commits to
// the whole upstream derivation, an entry can be trusted forever: there
// is no invalidation protocol, only derivation — a config change that
// affects a stage changes its key (and every key downstream), and
// everything unaffected keeps hitting.
//
// Storage is two-tier: a count+byte-bounded in-memory LRU in front of
// an optional on-disk durable.Dir of <key>.stg files, each a
// checksummed "rcpt-stg/1" envelope verified on every load.
// The failure contract matches the rest of the repo: a corrupt, torn,
// or truncated entry is deleted and reported as a miss — the stage
// recomputes, so faults cost latency, never bytes.
package stagecache

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/durable"
	"repro/internal/obs"
)

// Options configures a Cache. The zero value is usable: memory-only
// with production default bounds.
type Options struct {
	// MaxEntries bounds the number of payloads held in memory
	// (<=0: 256).
	MaxEntries int
	// MaxBytes bounds the total payload bytes held in memory
	// (<=0: 256 MiB).
	MaxBytes int64
	// MaxEntryBytes is the largest single payload worth caching
	// (<=0: 64 MiB). Larger stage outputs are cheaper to recompute
	// than to let one entry monopolize the cache, so Store skips them.
	MaxEntryBytes int64
	// Dir enables the disk tier: payloads are spilled here crash-safely
	// and read through on memory misses, so a restarted process warm
	// starts its stage reuse. Empty keeps the cache memory-only.
	Dir string
	// Metrics, when non-nil, receives hit/miss/store/eviction counts.
	// Nil disables instrumentation (library use, tests).
	Metrics *Metrics
}

// Metrics is the instrumentation surface a Cache feeds. All fields are
// optional; nil counters are skipped.
type Metrics struct {
	Hits       *obs.Counter // loads served (memory or disk)
	Misses     *obs.Counter // loads that found nothing usable
	Stores     *obs.Counter // payloads accepted into the cache
	Evictions  *obs.Counter // memory-LRU evictions (disk copies survive)
	DiskHits   *obs.Counter // loads that had to read the disk tier
	Corrupt    *obs.Counter // envelopes that failed verification (deleted)
	DiskErrors *obs.Counter // best-effort disk writes that failed
	Entries    *obs.Gauge   // payloads currently resident in memory
	Bytes      *obs.Gauge   // payload bytes currently resident in memory
}

// Cache is a content-addressed stage-output store. Safe for concurrent
// use.
type Cache struct {
	opts Options
	disk *durable.Dir // nil when Options.Dir is empty

	mu    sync.Mutex
	ll    *list.List // front = most recently used; values are *memEntry
	items map[string]*list.Element
	bytes int64
}

// memEntry is one resident payload.
type memEntry struct {
	key     string
	payload []byte
}

// New builds a Cache. When Options.Dir is set the directory is created;
// its existing contents become visible immediately through read-through
// loads (call Warm to validate and count them up front).
func New(opts Options) (*Cache, error) {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 256
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 256 << 20
	}
	if opts.MaxEntryBytes <= 0 {
		opts.MaxEntryBytes = 64 << 20
	}
	c := &Cache{
		opts:  opts,
		ll:    list.New(),
		items: map[string]*list.Element{},
	}
	if opts.Dir != "" {
		disk, err := durable.Open(opts.Dir, ".stg")
		if err != nil {
			return nil, fmt.Errorf("stagecache: dir: %w", err)
		}
		c.disk = disk
	}
	return c, nil
}

// Load returns the payload stored under key, reading through to the
// disk tier on a memory miss (the disk copy is promoted). The returned
// slice is shared: callers must treat it as read-only, which every
// stage decoder does by construction. A corrupt disk entry is deleted
// and reported as a miss.
func (c *Cache) Load(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		payload := el.Value.(*memEntry).payload
		c.mu.Unlock()
		c.count(c.opts.Metrics.hits())
		return payload, true
	}
	c.mu.Unlock()
	if c.disk != nil {
		payload, status := c.disk.Get(key)
		switch status {
		case durable.OK:
			c.put(key, payload)
			c.count(c.opts.Metrics.diskHits())
			c.count(c.opts.Metrics.hits())
			return payload, true
		case durable.Corrupt:
			c.count(c.opts.Metrics.corrupt())
		}
	}
	c.count(c.opts.Metrics.misses())
	return nil, false
}

// Store accepts a payload under key: into the memory LRU and, when the
// disk tier is on, spilled crash-safely. Oversized payloads (past
// MaxEntryBytes) are skipped entirely — recomputing them is cheaper
// than letting one entry evict everything else. Disk failures are
// counted, never fatal: the memory copy still serves this process.
func (c *Cache) Store(key string, payload []byte) {
	if key == "" || int64(len(payload)) > c.opts.MaxEntryBytes {
		return
	}
	c.put(key, payload)
	c.count(c.opts.Metrics.stores())
	if c.disk != nil {
		if err := c.disk.Put(key, payload); err != nil {
			c.count(c.opts.Metrics.diskErrors())
		}
	}
}

// Delete removes key from both tiers. Core calls it when a payload
// decodes as structurally invalid despite a valid checksum (a codec
// skew), so the entry cannot be retried forever.
func (c *Cache) Delete(key string) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
	c.mu.Unlock()
	c.gauges()
	if c.disk != nil {
		c.disk.Delete(key)
	}
}

// Warm validates every entry in the disk tier up front: corrupt
// envelopes and leftover temp files from a crashed write are deleted,
// valid entries are counted as restorable (they load lazily through
// Load, so boot cost is one verification scan, not a full residency
// load). The scan is durable.Dir.Replay, in sorted name order.
func (c *Cache) Warm() (restored, corrupt int) {
	if c.disk == nil {
		return 0, 0
	}
	restored, corrupt = c.disk.Replay(func(string, []byte) error { return nil })
	for i := 0; i < corrupt; i++ {
		c.count(c.opts.Metrics.corrupt())
	}
	return restored, corrupt
}

// Len reports resident memory entries (tests and gauges).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes reports resident memory payload bytes (tests and gauges).
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// put inserts (or refreshes) a memory entry and evicts past bounds.
func (c *Cache) put(key string, payload []byte) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*memEntry)
		c.bytes += int64(len(payload)) - int64(len(e.payload))
		e.payload = payload
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&memEntry{key: key, payload: payload})
		c.bytes += int64(len(payload))
	}
	evicted := 0
	for (c.ll.Len() > c.opts.MaxEntries || c.bytes > c.opts.MaxBytes) && c.ll.Len() > 1 {
		c.removeLocked(c.ll.Back())
		evicted++
	}
	c.mu.Unlock()
	for i := 0; i < evicted; i++ {
		c.count(c.opts.Metrics.evictions())
	}
	c.gauges()
}

// removeLocked drops one element from the LRU. Caller holds mu.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*memEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= int64(len(e.payload))
}

// count increments a counter when instrumentation is attached.
func (c *Cache) count(ctr *obs.Counter) {
	if ctr != nil {
		ctr.Inc()
	}
}

// gauges publishes residency after any mutation.
func (c *Cache) gauges() {
	m := c.opts.Metrics
	if m == nil {
		return
	}
	c.mu.Lock()
	entries, bytes := int64(c.ll.Len()), c.bytes
	c.mu.Unlock()
	if m.Entries != nil {
		m.Entries.Set(entries)
	}
	if m.Bytes != nil {
		m.Bytes.Set(bytes)
	}
}

// nil-safe metric accessors: a nil *Metrics yields nil counters, which
// count skips.

func (m *Metrics) hits() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.Hits
}

func (m *Metrics) misses() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.Misses
}

func (m *Metrics) stores() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.Stores
}

func (m *Metrics) evictions() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.Evictions
}

func (m *Metrics) diskHits() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.DiskHits
}

func (m *Metrics) corrupt() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.Corrupt
}

func (m *Metrics) diskErrors() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.DiskErrors
}
