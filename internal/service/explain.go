package service

// Plan provenance: the per-hash record behind GET /v1/explain/{hash}.
//
// Every served plan request updates one record of the canonical instance
// hash: which request last touched it, how it was served (cache outcome
// and plan source), what the answer was, and — when a solve ever ran for
// it, this process or a persisted one — the search-effort record of that
// solve. The record is part of the hash's drift-registry entry, so it
// lives exactly as long as the hash stays registered (registrySize, least
// recently used forgotten first).
//
// The hot-path contract: recording a serve allocates nothing (in-place
// field writes into the registration the request already holds) — the
// cache-hit AllocBudget guard covers this path.

import (
	"sync"
	"time"

	"repro/internal/canon"
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

// registration is one drift-registry value: a canonical instance and the
// provenance record of its most recent serve.
type registration struct {
	inst *canon.Instance

	mu      sync.Mutex
	explain Explain // Hash is "" until the first serve
}

// record notes one serve: field writes in place, no allocation.
func (r *registration) record(key, reqID string, req Request, outcome, source string, val *cacheEntry) {
	r.mu.Lock()
	r.explain = Explain{
		Hash:      r.inst.Hash(),
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
	r.mu.Unlock()
}

// Explain returns the provenance record of the most recent serve of the
// canonical hash, if the hash is registered and was served. Peek, not
// Get: reading a record does not refresh the registry's recency.
func (s *Server) Explain(hash string) (Explain, bool) {
	r, ok := s.registry.Peek(hash)
	if !ok {
		return Explain{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.explain, r.explain.Hash != ""
}
