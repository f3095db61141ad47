package service

// Plan provenance: the per-hash record behind GET /v1/explain/{hash}.
//
// Every served plan request updates one record keyed by the canonical
// instance hash: which request last touched it, how it was served (cache
// outcome and plan source), what the answer was, and — when a solve ever
// ran for it, this process or a persisted one — the search-effort record
// of that solve. The cache is a bounded LRU so a stream of distinct
// instances cannot grow the daemon without limit, mirroring the registry.
//
// The hot-path contract: recording a serve for an already-known hash
// allocates nothing (map lookup, in-place field writes, list reshuffle) —
// the cache-hit AllocBudget guard covers this path. Only the first serve
// of a hash allocates its record.

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/solve"
)

// Explain is the provenance record of the most recent serve of one
// canonical hash.
type Explain struct {
	// Hash is the canonical instance hash; Key the full cache key of the
	// last serve (hash plus solve parameters).
	Hash string
	Key  string
	// RequestID correlates the last serve with its log lines and span
	// ("" when the serve ran without an HTTP request, e.g. a library
	// call).
	RequestID string
	// Model/Objective/Method/Family are the last serve's request
	// parameters (Method and Family as requested; the resolved pair lives
	// in Effort).
	Model     plan.Model
	Objective solve.Objective
	Method    solve.Method
	Family    solve.Family
	// Outcome is the plan-cache verdict (miss/hit/coalesced); Source
	// where the answer came from (cache/store/solve/failover).
	Outcome string
	Source  string
	// Value/Exact are the served solution's objective and certificate.
	Value rat.Rat
	Exact bool
	// Effort is the search-effort record of the solve that produced the
	// answer — the same counters whether this serve solved, hit the
	// cache, or warm-loaded the plan from the store (nil only for entries
	// persisted before efforts existed).
	Effort *solve.Effort
	// Served is when the last serve finished.
	Served time.Time
}

// explainCache is the bounded, least-recently-served map of Explain
// records.
type explainCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element // hash → element; Value is *Explain
	lru     *list.List               // most recently served at the front
}

func newExplainCache(max int) *explainCache {
	return &explainCache{
		max:     max,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// record notes one serve. In-place update for a known hash — no
// allocation; creation (and possibly one eviction) otherwise.
func (c *explainCache) record(hash, key, reqID string, req Request, outcome, source string, val *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[hash]; ok {
		e := el.Value.(*Explain)
		e.Key = key
		e.RequestID = reqID
		e.Model = req.Model
		e.Objective = req.Objective
		e.Method = req.Method
		e.Family = req.Family
		e.Outcome = outcome
		e.Source = source
		e.Value = val.sol.Value
		e.Exact = val.sol.Exact
		e.Effort = val.effort
		e.Served = time.Now()
		c.lru.MoveToFront(el)
		return
	}
	e := &Explain{
		Hash:      hash,
		Key:       key,
		RequestID: reqID,
		Model:     req.Model,
		Objective: req.Objective,
		Method:    req.Method,
		Family:    req.Family,
		Outcome:   outcome,
		Source:    source,
		Value:     val.sol.Value,
		Exact:     val.sol.Exact,
		Effort:    val.effort,
		Served:    time.Now(),
	}
	c.entries[hash] = c.lru.PushFront(e)
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		ev := oldest.Value.(*Explain)
		c.lru.Remove(oldest)
		delete(c.entries, ev.Hash)
	}
}

// get returns a copy of the record for hash, if any.
func (c *explainCache) get(hash string) (Explain, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[hash]
	if !ok {
		return Explain{}, false
	}
	return *el.Value.(*Explain), true
}

// Explain returns the provenance record of the most recent serve of the
// canonical hash, if the server has one.
func (s *Server) Explain(hash string) (Explain, bool) {
	return s.explain.get(hash)
}
