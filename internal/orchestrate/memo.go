package orchestrate

// Solve-level orchestration memoization.
//
// A plan-level search reaches the same weighted candidate graph many times —
// hill-climb restarts revisit forests, branch-and-bound re-evaluates the
// graphs its incumbent seeding already orchestrated, different shards meet
// at symmetric candidates. Orchestration is deterministic for a fixed
// weighted plan and options (every worker count returns the bit-identical
// Score), so a fingerprint-keyed memo can return the first computation's
// Score for all of them without touching the determinism invariant: a hit
// holds the Score recomputing would return, or proves the caller's limit
// out as recomputing would.
//
// Entries hold Scores (score.go), not schedules: value, bound, exactness
// and the winning per-server orders — a few small integer slices. The
// operation list is rebuilt by Score.Materialise for the one candidate a
// search returns, so the memo costs the garbage collector almost nothing
// however many candidate graphs pass through it.
//
// Cut-offs are memoized too. A scoring under a Limit L (score.go) that
// ends not-below stores the fact "every schedule is above L" under the
// problem's key: the fact serves a later scoring at any limit ≤ L, misses
// at a higher limit or none, and gives way to a full Score or to a fact
// at a higher limit. A full Score serves every limit (above it the caller
// rejects it as it would a cut-off) and is never replaced. The limit is not
// part of the key.
//
// The key serializes the problem exactly — no hashing, so collisions are
// impossible: objective kind, model, the Options fields that can change
// the Score (Workers and Stats are deliberately excluded), and the full
// weighted plan including names (a materialised schedule's bottleneck
// labels mention them).
//
// A memo lives for one solve, so it never evicts: it stops inserting at a
// fixed bound. It is not shared across solves: almost every hit comes from
// inside one solve, and a shared memo would make a solve's orchestration
// counters depend on what the process solved before.

import (
	"strconv"
	"sync"

	"repro/internal/plan"
)

// Memo caches orchestration Scores across the candidate evaluations of one
// plan-level solve. It is safe for concurrent use (the parallel searches
// score from many goroutines); entries are immutable once stored (callers
// must not mutate a memoized Score's Orders). Errors are cached too: an
// infeasible weighted plan is infeasible on every shard.
type Memo struct {
	mu      sync.Mutex
	entries map[string]memoEntry
}

type memoEntry struct {
	res Score
	err error
}

// memoEntries bounds a memo. A solve scores at most its evaluation
// budget's worth of distinct graphs, so the bound is generous; it only
// caps the memory of a pathological search.
const memoEntries = 4096

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{entries: make(map[string]memoEntry)}
}

// lookup returns the cached outcome for key under limit: the stored
// Score, or the cut-off at limit when a stored fact covers it.
func (m *Memo) lookup(key string, limit Limit) (Score, error, bool) {
	m.mu.Lock()
	e, ok := m.entries[key]
	m.mu.Unlock()
	if ok && e.res.NotBelow() {
		if !limit.ok || limit.v.Greater(e.res.Value) {
			return Score{}, nil, false
		}
		return cutOff(limit), nil, true
	}
	return e.res, e.err, ok
}

// store records an outcome unless the memo is full, replacing a fact with
// a full Score or a higher fact and nothing else. Among full Scores the
// first writer wins: concurrent solvers of the same key computed the
// bit-identical Score, so which one lands is immaterial.
func (m *Memo) store(key string, res Score, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old, ok := m.entries[key]
	switch {
	case !ok && len(m.entries) < memoEntries,
		ok && old.res.NotBelow() && (!res.NotBelow() || res.Value.Greater(old.res.Value)):
		m.entries[key] = memoEntry{res: res, err: err}
	}
}

// memoKey serializes one orchestration problem exactly. kind distinguishes
// the period and latency searches; opts contributes only the fields that
// can change the Score. Built with strconv appends (no fmt): the key is
// computed per candidate evaluation of a memoized plan search, so its
// cost is part of the orchestration hot path.
func memoKey(kind byte, m plan.Model, opts Options, w *plan.Weighted) string {
	opts = opts.withDefaults()
	b := make([]byte, 0, 64+16*w.N()+24*len(w.Edges()))
	b = append(b, kind, '|')
	b = strconv.AppendInt(b, int64(m), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(opts.MaxExhaustive), 10)
	b = append(b, ';')
	b = strconv.AppendInt(b, int64(w.N()), 10)
	for v := 0; v < w.N(); v++ {
		name := w.Name(v)
		b = append(b, ';')
		b = strconv.AppendInt(b, int64(len(name)), 10)
		b = append(b, ':')
		b = append(b, name...)
		b = append(b, '=')
		b = w.Comp(v).Append(b)
	}
	for ei, e := range w.Edges() {
		b = append(b, ';')
		b = strconv.AppendInt(b, int64(e.From), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e.To), 10)
		b = append(b, '=')
		b = w.Vol(ei).Append(b)
	}
	return string(b)
}
