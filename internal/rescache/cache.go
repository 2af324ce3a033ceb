package rescache

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"gea/internal/exec"
	"gea/internal/obs"
)

// Defaults for Options fields left zero.
const (
	DefaultMaxEntries = 256
	DefaultMaxBytes   = 64 << 20
)

// Options configures a Cache; the zero value selects the defaults.
type Options struct {
	// MaxEntries bounds the number of cached results; the least
	// recently used entry is evicted past it. Zero means
	// DefaultMaxEntries.
	MaxEntries int
	// MaxBytes bounds the approximate retained result bytes (as
	// reported by each compute); zero means DefaultMaxBytes.
	MaxBytes int64
	// Metrics optionally records the cache.* series; nil disables
	// instrumentation.
	Metrics *obs.Registry
}

// Computed is one operator result as the cache stores it: the immutable
// value, its approximate size, the work units the computing run
// charged, whether the run was budget-stopped, and the span record of
// the run — so a hit can still account for the work that produced it.
type Computed struct {
	Value any
	// Bytes is the compute's size estimate, charged against MaxBytes.
	Bytes int64
	// Units is the exec work the computing run charged; hits report it
	// so cached and fresh responses stay reconcilable.
	Units int64
	// Partial marks a budget-stopped result. Partials are returned to
	// the caller (and its flight) but never stored.
	Partial bool
	// Record is the computing run's span record, when a collector was
	// installed; served alongside hits for trace reconciliation.
	Record *obs.Record
}

// Source reports where a Do result came from.
type Source int

const (
	// SourceComputed: this caller ran the compute (a miss).
	SourceComputed Source = iota
	// SourceHit: served from a stored entry.
	SourceHit
	// SourceShared: joined an in-flight compute for the same key.
	SourceShared
)

func (s Source) String() string {
	switch s {
	case SourceComputed:
		return "computed"
	case SourceHit:
		return "hit"
	case SourceShared:
		return "shared"
	}
	return "unknown"
}

// Cached reports whether the caller's result was produced without
// running its own compute.
func (s Source) Cached() bool { return s != SourceComputed }

// errLeaderPanicked is what followers of a flight whose compute panicked
// receive; the leader's caller gets the panic itself.
var errLeaderPanicked = errors.New("rescache: the compute this request joined panicked")

// flight is one in-progress compute; followers block on done and then
// read res/err, which are written before done is closed.
type flight struct {
	done chan struct{}
	res  Computed
	err  error
}

// entry is one stored result on the LRU list.
type entry struct {
	key Key
	gen uint64
	res Computed
}

// cacheMeters bundles the cache.* metric handles; every handle is a
// no-op when no registry was supplied.
type cacheMeters struct {
	hits, misses, shared, evicted, swept, uncacheable *obs.Counter
	entries, bytes                                    *obs.Gauge
}

// Cache is the bounded, generation-keyed result cache. Safe for
// concurrent use; computes run outside the cache lock.
type Cache struct {
	maxEntries int
	maxBytes   int64
	m          cacheMeters

	mu      sync.Mutex
	byKey   map[Key]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64
	flights map[Key]*flight

	hits, misses, sharedN, evictedN, sweptN, uncacheableN int64
}

// New builds a cache from opts; zero fields select the defaults.
func New(opts Options) *Cache {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = DefaultMaxEntries
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	r := opts.Metrics
	return &Cache{
		maxEntries: opts.MaxEntries,
		maxBytes:   opts.MaxBytes,
		m: cacheMeters{
			hits:        r.Counter("cache.hits"),
			misses:      r.Counter("cache.misses"),
			shared:      r.Counter("cache.singleflight_shared"),
			evicted:     r.Counter("cache.evicted"),
			swept:       r.Counter("cache.swept"),
			uncacheable: r.Counter("cache.uncacheable_partial"),
			entries:     r.Gauge("cache.entries"),
			bytes:       r.Gauge("cache.bytes"),
		},
		byKey:   map[Key]*list.Element{},
		lru:     list.New(),
		flights: map[Key]*flight{},
	}
}

// Do returns the cached result for key, joins an in-flight compute for
// it, or — as the key's single flight leader — runs fn and stores the
// result. fn runs outside the cache lock. An error or a Partial result
// is handed to the leader and every follower but never stored. A
// follower whose ctx dies while waiting returns the context error; the
// leader's compute is not cancelled by followers leaving. Nor do
// followers inherit the leader's cancellation: the compute ran under
// the leader's context, so a follower whose own context is still live
// looks the key up again when the flight it joined was cancelled or
// timed out. Each call counts once in the hit, miss and shared
// counters, by its final outcome.
func (c *Cache) Do(ctx context.Context, key Key, gen uint64, fn func() (Computed, error)) (Computed, Source, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		c.mu.Lock()
		if el, ok := c.byKey[key]; ok {
			c.lru.MoveToFront(el)
			res := el.Value.(*entry).res
			c.hits++
			c.m.hits.Add(1)
			c.mu.Unlock()
			return res, SourceHit, nil
		}
		f, ok := c.flights[key]
		if !ok {
			break // lead a new flight, still holding the lock
		}
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return Computed{}, SourceShared, ctx.Err()
		}
		if exec.IsCancellation(f.err) && ctx.Err() == nil {
			continue
		}
		c.mu.Lock()
		c.sharedN++
		c.m.shared.Add(1)
		c.mu.Unlock()
		return f.res, SourceShared, f.err
	}
	f := &flight{done: make(chan struct{}), err: errLeaderPanicked}
	c.flights[key] = f
	c.misses++
	c.m.misses.Add(1)
	c.mu.Unlock()

	// The flight finishes in a defer so a panicking fn cannot strand it:
	// followers then wake with errLeaderPanicked, nothing is stored, and
	// the panic continues to the leader's caller.
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			if f.res.Partial {
				c.uncacheableN++
				c.m.uncacheable.Add(1)
			} else {
				c.insertLocked(key, gen, f.res)
			}
		}
		close(f.done)
		c.mu.Unlock()
	}()
	f.res, f.err = fn()
	return f.res, SourceComputed, f.err
}

// Get returns the stored result for key without computing; intended
// for tests and introspection.
func (c *Cache) Get(key Key) (Computed, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return Computed{}, false
	}
	return el.Value.(*entry).res, true
}

// insertLocked stores one result at the LRU front and evicts from the
// back until both bounds hold again. An oversized single result is
// inserted and immediately evicted — effectively uncacheable.
func (c *Cache) insertLocked(key Key, gen uint64, res Computed) {
	if res.Bytes < 1 {
		res.Bytes = 1
	}
	el := c.lru.PushFront(&entry{key: key, gen: gen, res: res})
	c.byKey[key] = el
	c.bytes += res.Bytes
	for (c.lru.Len() > c.maxEntries || c.bytes > c.maxBytes) && c.lru.Len() > 0 {
		c.removeLocked(c.lru.Back())
		c.evictedN++
		c.m.evicted.Add(1)
	}
	c.noteLocked()
}

// removeLocked unlinks one LRU element and releases its bytes.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.byKey, e.key)
	c.bytes -= e.res.Bytes
}

// EvictBelow proactively frees every entry stored at a generation older
// than gen and reports how many it swept. Entries below gen are already
// unreachable — the generation is part of the key — so this is a memory
// release on a generation bump, not a correctness mechanism.
func (c *Cache) EvictBelow(gen uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*entry).gen < gen {
			c.removeLocked(el)
			n++
		}
		el = next
	}
	if n > 0 {
		c.sweptN += int64(n)
		c.m.swept.Add(int64(n))
		c.noteLocked()
	}
	return n
}

// noteLocked refreshes the size gauges.
func (c *Cache) noteLocked() {
	c.m.entries.Set(int64(c.lru.Len()))
	c.m.bytes.Set(c.bytes)
}

// Stats is a point-in-time snapshot of the cache, JSON-ready for
// /healthz.
type Stats struct {
	Entries            int   `json:"entries"`
	Bytes              int64 `json:"bytes"`
	MaxEntries         int   `json:"max_entries"`
	MaxBytes           int64 `json:"max_bytes"`
	InFlight           int   `json:"in_flight"`
	Hits               int64 `json:"hits"`
	Misses             int64 `json:"misses"`
	Shared             int64 `json:"shared"`
	Evicted            int64 `json:"evicted"`
	Swept              int64 `json:"swept"`
	UncacheablePartial int64 `json:"uncacheable_partial"`
}

// Stats snapshots the cache's counters and bounds.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:            c.lru.Len(),
		Bytes:              c.bytes,
		MaxEntries:         c.maxEntries,
		MaxBytes:           c.maxBytes,
		InFlight:           len(c.flights),
		Hits:               c.hits,
		Misses:             c.misses,
		Shared:             c.sharedN,
		Evicted:            c.evictedN,
		Swept:              c.sweptN,
		UncacheablePartial: c.uncacheableN,
	}
}

// Len reports the number of stored entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
