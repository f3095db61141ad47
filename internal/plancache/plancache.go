// Package plancache is the plan cache of the long-running planning
// service: a bounded LRU keyed by canonical instance hash (package canon)
// with singleflight deduplication, so N concurrent identical requests cost
// exactly one solve and repeated requests cost none.
//
// The cache stores only successful results. A solve that returns an error
// is reported to every coalesced waiter and leaves no entry behind, so a
// transient failure never poisons the key. Entries still in flight are
// never evicted (their waiters hold them); the capacity bound applies to
// completed entries, evicted least-recently-used first.
package plancache

import (
	"container/list"
	"sync"
)

// Outcome classifies how one Do call was served.
type Outcome int

const (
	// Miss: this call ran the solve.
	Miss Outcome = iota
	// Hit: the value was already cached.
	Hit
	// Coalesced: another call was already solving the same key; this call
	// waited for its result instead of solving again.
	Coalesced
)

// String names the outcome for reports.
func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "unknown"
	}
}

// Stats are the running counters of a cache.
type Stats struct {
	Hits      int64
	Misses    int64
	Coalesced int64
	Evictions int64
	// Seeded counts entries inserted by Seed (the persistent store's
	// warm-load path) — they never touch the hit/miss counters, so
	// without this the warm-start population is invisible to metrics.
	Seeded int64
	// Len is the number of completed entries currently cached; InFlight the
	// number of solves currently running; Cap the capacity bound.
	Len      int
	InFlight int
	Cap      int
}

// entry is one key's slot: in flight until ready is closed, then holding
// val (or removed, when the solve failed).
type entry[V any] struct {
	key   string
	ready chan struct{}
	val   V
	err   error
	elem  *list.Element // position in the LRU list; nil while in flight
}

// Cache is a bounded LRU with singleflight deduplication. The zero value is
// not usable; call New.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*entry[V]
	lru      *list.List // completed entries, most recent at the front
	inFlight int

	hits, misses, coalesced, evictions, seeded int64
}

// New returns a cache bounded to capacity completed entries (minimum 1).
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		capacity: capacity,
		entries:  make(map[string]*entry[V]),
		lru:      list.New(),
	}
}

// Do returns the cached value for key, or runs solve to produce it. At most
// one solve per key runs at any moment: concurrent Do calls with the same
// key coalesce onto the running solve and all receive its result. On solve
// error, every coalesced caller receives the error and the key is removed,
// so a later Do retries.
func (c *Cache[V]) Do(key string, solve func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil { // completed: a plain hit
			c.hits++
			c.lru.MoveToFront(e.elem)
			v := e.val
			c.mu.Unlock()
			return v, Hit, nil
		}
		// In flight: wait for the running solve.
		c.coalesced++
		c.mu.Unlock()
		<-e.ready
		return e.val, Coalesced, e.err
	}
	e := &entry[V]{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.inFlight++
	c.mu.Unlock()

	val, err := solve()

	c.mu.Lock()
	c.inFlight--
	e.val, e.err = val, err
	if err != nil {
		delete(c.entries, key)
	} else {
		e.elem = c.lru.PushFront(e)
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
	return val, Miss, err
}

// Seed inserts a completed entry without running a solve and without
// touching the hit/miss counters — the warm-load path of the persistent
// plan store, which replays previously solved entries into the LRU at
// startup. An existing entry (completed or in flight) is left untouched
// and Seed reports false; capacity is enforced as usual, so seeding more
// than Cap entries keeps only the most recently seeded ones.
func (c *Cache[V]) Seed(key string, val V) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return false
	}
	e := &entry[V]{key: key, ready: make(chan struct{}), val: val}
	close(e.ready)
	c.entries[key] = e
	e.elem = c.lru.PushFront(e)
	c.seeded++
	c.evictLocked()
	return true
}

// Get returns the cached value for key without solving. It counts as a hit
// (and refreshes recency) when present and completed; in-flight entries are
// not waited for.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.elem != nil {
		c.hits++
		c.lru.MoveToFront(e.elem)
		return e.val, true
	}
	var zero V
	return zero, false
}

// Keys returns the keys of every completed entry, most recently used
// first (the LRU order) — the digest the cluster sync layer advertises to
// its peers. Recency is not touched.
func (c *Cache[V]) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[V]).key)
	}
	return keys
}

// Peek returns the cached value for key without counting a hit or
// refreshing recency — reads on behalf of a peer (the sync export path)
// must not distort the local LRU.
func (c *Cache[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.elem != nil {
		return e.val, true
	}
	var zero V
	return zero, false
}

// evictLocked enforces the capacity bound on completed entries.
func (c *Cache[V]) evictLocked() {
	for c.lru.Len() > c.capacity {
		oldest := c.lru.Back()
		e := oldest.Value.(*entry[V])
		c.lru.Remove(oldest)
		delete(c.entries, e.key)
		c.evictions++
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
		Seeded:    c.seeded,
		Len:       c.lru.Len(),
		InFlight:  c.inFlight,
		Cap:       c.capacity,
	}
}
