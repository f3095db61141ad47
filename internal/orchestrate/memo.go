package orchestrate

// Solve-level and service-wide orchestration memoization.
//
// Plan-level searches reach the same weighted candidate graph many times —
// hill-climb restarts revisit forests, branch-and-bound re-evaluates the
// graphs its incumbent seeding already orchestrated, different shards meet
// at symmetric candidates — and a long-running service sees the same
// subgraphs across requests that share structure. Orchestration is
// deterministic for a fixed weighted plan and options (every worker count
// returns the bit-identical Score), so a fingerprint-keyed memo can return
// the first computation's Score for all of them without touching the
// determinism invariant: a hit is indistinguishable from recomputing.
//
// Entries hold Scores (score.go), not schedules: value, bound, exactness
// and the winning per-server orders — a few small integer slices. The
// operation list is rebuilt by Score.Materialise for the one candidate a
// search returns, so the memo costs the garbage collector almost nothing
// however many candidate graphs pass through it.
//
// The key serializes the problem exactly — no hashing, so collisions are
// impossible: objective kind, model, the Options fields that can change
// the Score (Workers and Stats are deliberately excluded), and the full
// weighted plan including names (a materialised schedule's bottleneck
// labels mention them).
//
// The memo is a bounded LRU (least-recently-used completed entry evicted
// first), not an insert-until-full map: a per-solve memo never notices the
// difference, but a service-wide memo lives for days and must keep the
// subgraphs current requests actually share rather than whatever the first
// 4096 solves happened to touch.

import (
	"container/list"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/plan"
)

// Memo caches orchestration Scores across candidate evaluations — of one
// plan-level solve, or of every solve in a service when shared wider. It
// is safe for concurrent use; entries are immutable once stored (callers
// must not mutate a memoized Score's Orders). Errors are cached too: an
// infeasible weighted plan is infeasible on every shard and in every
// request.
type Memo struct {
	mu        sync.Mutex
	entries   map[string]*memoEntry
	lru       *list.List // *memoEntry, most recently used at the front
	max       int
	hits      int64
	misses    int64
	evictions int64
}

type memoEntry struct {
	key  string
	res  Score
	err  error
	elem *list.Element
}

// defaultMemoEntries bounds a zero-configured memo. A solve call touches
// at most its evaluation budget's worth of distinct graphs, so this is
// generous; a service-wide memo under steady load converges to its hottest
// working set instead.
const defaultMemoEntries = 4096

// NewMemo returns a memo holding at most max entries (max <= 0: a default
// of 4096), evicting least-recently-used first.
func NewMemo(max int) *Memo {
	if max <= 0 {
		max = defaultMemoEntries
	}
	return &Memo{entries: make(map[string]*memoEntry), lru: list.New(), max: max}
}

// lookup returns the cached outcome for key, refreshing its recency.
func (m *Memo) lookup(key string) (Score, error, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		m.misses++
		return Score{}, nil, false
	}
	m.hits++
	m.lru.MoveToFront(e.elem)
	return e.res, e.err, true
}

// store records an outcome, first writer wins (concurrent solvers of the
// same key computed the bit-identical Score, so which one lands is
// immaterial; keeping the first preserves its recency position). The
// least-recently-used entry is evicted when the memo is over capacity.
func (m *Memo) store(key string, res Score, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; ok {
		return
	}
	e := &memoEntry{key: key, res: res, err: err}
	e.elem = m.lru.PushFront(e)
	m.entries[key] = e
	for m.lru.Len() > m.max {
		oldest := m.lru.Back()
		ev := oldest.Value.(*memoEntry)
		m.lru.Remove(oldest)
		delete(m.entries, ev.key)
		m.evictions++
	}
}

// Hits returns the number of lookups served from the memo.
func (m *Memo) Hits() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits
}

// Misses returns the number of lookups that fell through to a fresh
// orchestration.
func (m *Memo) Misses() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.misses
}

// Evictions returns the number of entries dropped by the capacity bound.
func (m *Memo) Evictions() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evictions
}

// Len returns the number of cached outcomes.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
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
	for _, f := range [...]int64{int64(opts.MaxExhaustive), int64(opts.LocalSearchPasses), int64(opts.RandomSamples), opts.Seed} {
		b = append(b, '|')
		b = strconv.AppendInt(b, f, 10)
	}
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

// String renders the memo counters for stats reporting.
func (m *Memo) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return fmt.Sprintf("memo{hits: %d, misses: %d, entries: %d, evictions: %d}", m.hits, m.misses, m.lru.Len(), m.evictions)
}
