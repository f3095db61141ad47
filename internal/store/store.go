// Package store is the persistence layer of the planning service: a
// write-through, disk-backed plan store keyed by the plan cache's full key
// (canonical instance hash plus solve parameters, internal/service).
//
// The paper's plans are computed once and reused across millions of data
// sets, so losing a populated cache to a restart re-pays the NP-hard
// search for every live instance. The store closes that gap: every
// successful solve is persisted write-through as one self-contained file,
// and a restarted replica warm-loads the directory back into its LRU, so
// it answers warm-hit requests bit-identical to pre-restart — the
// determinism invariant extended across process lifetimes.
//
// # On-disk codec
//
// One entry per file, named by the SHA-256 of the cache key. The codec is
// versioned (entryVersion): an entry records the canonical application
// (the workflow JSON instance format), the execution-graph edges over
// canonical indices, the operation list (the oplist JSON codec) and the
// objective metadata. Loading re-canonicalizes the stored application and
// rejects any entry whose recomputed hash disagrees with its key — a
// corrupt or stale-format file is skipped, never served.
//
// # Crash safety
//
// Writes go to a temporary file in the same directory, are fsynced, and
// renamed over the final name — a crash mid-write leaves either the old
// entry or a .tmp file the next load ignores, never a torn entry.
//
// # Quarantine
//
// A file that does decode-fail at load — torn by a crash that beat the
// rename discipline, truncated by a failing disk, hash-mismatched by bit
// rot — is quarantined: renamed aside with a ".bad" suffix and counted,
// so the rest of the directory warm-loads and the next startup does not
// trip over the same corpse. Quarantine never aborts a load; losing one
// entry costs one re-solve, losing the startup costs every entry.
//
// # Replication
//
// Encode and Decode expose the entry codec to the cluster's sync layer:
// POST /v1/sync streams entries between shard co-owners in exactly the
// bytes this package persists, so a plan solved (or PATCHed) on one
// replica warm-loads on its peers without a second serialization format.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/canon"
	"repro/internal/cliopt"
	"repro/internal/oplist"
	"repro/internal/orchestrate"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/solve"
	"repro/internal/workflow"
)

// entryVersion tags the on-disk format; loaders skip files with any other
// version, so a future format change cannot alias old entries.
const entryVersion = "filterd-plan-store/v1"

// suffix is the entry file extension; everything else in the directory is
// ignored on load.
const suffix = ".plan.json"

// Entry is one persisted plan: the full cache key, the canonical instance
// it was solved on, and the solution.
type Entry struct {
	// Key is the plan cache key: canonical hash plus every solve
	// parameter that can change the solution.
	Key string
	// Instance is the canonical instance (its Hash is the key's prefix).
	Instance *canon.Instance
	// Solution is the solved plan, reconstructed bit-identical on load.
	Solution solve.Solution
	// Effort, when non-nil, is the search-effort record of the solve that
	// produced the Solution (solver counters, timings) — kept
	// so a warm-restarted service explains a stored plan with the original
	// solve's evidence. Optional: entries written before the field existed
	// load with a nil Effort, and a malformed effort block drops only the
	// effort, never the plan.
	Effort *solve.Effort
}

// Stats are the running counters of a store.
type Stats struct {
	// Writes counts persisted entries this process wrote; WriteErrors the
	// failed persists (the serving path continues — persistence is an
	// availability optimization, not a correctness gate).
	Writes      int64
	WriteErrors int64
	// Loaded counts entries warm-loaded by the last Load call; Skipped
	// the files Load rejected (wrong version, hash mismatch, decode
	// error). Quarantined counts the rejected files Load renamed aside
	// with a ".bad" suffix (every Skipped file except other-version
	// entries, which are preserved in place for the codec that wrote
	// them).
	Loaded      int64
	Skipped     int64
	Quarantined int64
}

// Hooks intercepts entry I/O — the store-side fault-injection seam
// (internal/faults implements it). Nil hooks inject nothing.
type Hooks interface {
	// BeforeWrite sees every entry payload before it reaches the disk;
	// it may rewrite (tear) the data or fail the write.
	BeforeWrite(name string, data []byte) ([]byte, error)
}

// Store is a directory of persisted plans. Create with Open; methods are
// safe for concurrent use.
type Store struct {
	dir string

	mu    sync.Mutex
	stats Stats
	hooks Hooks
}

// Open creates the directory if needed and returns the store.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// SetHooks installs (or clears, with nil) the I/O fault hooks. Call
// before the store is shared; the field is read unsynchronized on the
// write path.
func (s *Store) SetHooks(h Hooks) { s.hooks = h }

// entryJSON is the versioned serialization of one Entry.
type entryJSON struct {
	Version string `json:"version"`
	Key     string `json:"key"`
	Hash    string `json:"hash"`
	// Instance is the canonical application in the workflow JSON instance
	// format (exact rationals, precedence as the transitive reduction).
	Instance json.RawMessage `json:"instance"`
	// Edges are the execution-graph edges over canonical service indices,
	// in the deterministic dag.Graph.Edges order.
	Edges [][2]int `json:"edges"`
	Value rat.Rat  `json:"value"`
	Exact bool     `json:"exact"`
	// The orchestration result: its value/bound/exactness/bottleneck plus
	// the operation list in the oplist JSON codec.
	SchedValue      rat.Rat         `json:"sched_value"`
	SchedLowerBound rat.Rat         `json:"sched_lower_bound"`
	SchedExact      bool            `json:"sched_exact"`
	SchedBottleneck []string        `json:"sched_bottleneck,omitempty"`
	Schedule        json.RawMessage `json:"schedule"`
	// Effort is the optional search-effort record (absent in entries
	// written before it existed — the version tag is unchanged because old
	// entries remain fully servable).
	Effort *effortJSON `json:"effort,omitempty"`
}

// effortJSON serializes solve.Effort with the method and family as their
// canonical names, so entry files stay greppable and enum renumbering
// cannot corrupt stored records. Entries written by older builds may also
// carry bound_edges_built/_flat and filter_certified/_fallback, counters of
// a bound and pre-filter since deleted, and memo_hits, the counter of a
// per-solve orchestration memo since deleted: decoding ignores them.
type effortJSON struct {
	Method   string `json:"method"`
	Family   string `json:"family"`
	Expanded int64  `json:"expanded"`
	Pruned   int64  `json:"pruned"`
	// Evaluated counts complete graphs scored by the branch-and-bound
	// search; Evals every candidate orchestration of the solve.
	Evaluated     int64 `json:"evaluated"`
	Evals         int64 `json:"orchestrations"`
	OrchPrefixes  int64 `json:"orch_prefixes"`
	OrchPruned    int64 `json:"orch_pruned"`
	OrchEvaluated int64 `json:"orch_evaluated"`
	OrchCutOffs   int64 `json:"orch_cutoffs,omitempty"`
	QueueNanos    int64 `json:"queue_nanos"`
	SolveNanos    int64 `json:"solve_nanos"`
	OrchNanos     int64 `json:"orch_nanos"`
}

// encodeEffort maps solve.Effort to its JSON form (nil passes through).
func encodeEffort(e *solve.Effort) *effortJSON {
	if e == nil {
		return nil
	}
	return &effortJSON{
		Method:        e.Method.String(),
		Family:        e.Family.String(),
		Expanded:      e.Search.Expanded,
		Pruned:        e.Search.Pruned,
		Evaluated:     e.Search.Evaluated,
		Evals:         e.Evals,
		OrchPrefixes:  e.Orch.Prefixes,
		OrchPruned:    e.Orch.Pruned,
		OrchEvaluated: e.Orch.Evaluated,
		OrchCutOffs:   e.Orch.CutOffs,
		QueueNanos:    e.QueueNanos,
		SolveNanos:    e.SolveNanos,
		OrchNanos:     e.OrchNanos,
	}
}

// decodeEffort maps the JSON form back; an unparseable method or family
// name (a future format, or a method since retired: the blind exact-*
// enumerations) yields nil — the effort degrades, the plan stays servable.
func decodeEffort(d *effortJSON) *solve.Effort {
	if d == nil {
		return nil
	}
	method, err := cliopt.Method(d.Method)
	if err != nil {
		return nil
	}
	family, err := cliopt.Family(d.Family)
	if err != nil {
		return nil
	}
	return &solve.Effort{
		Method:     method,
		Family:     family,
		Search:     solve.Stats{Expanded: d.Expanded, Pruned: d.Pruned, Evaluated: d.Evaluated},
		Orch:       orchestrate.Stats{Prefixes: d.OrchPrefixes, Pruned: d.OrchPruned, Evaluated: d.OrchEvaluated, CutOffs: d.OrchCutOffs},
		Evals:      d.Evals,
		QueueNanos: d.QueueNanos,
		SolveNanos: d.SolveNanos,
		OrchNanos:  d.OrchNanos,
	}
}

// fileName maps a cache key to its entry file: the hex SHA-256 of the key,
// so arbitrary key vocabularies stay filename-safe and collision-free.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + suffix
}

// Put persists one solved plan write-through (atomic replace of any
// previous entry for the key).
func (s *Store) Put(e Entry) error {
	err := s.put(e)
	s.mu.Lock()
	if err != nil {
		s.stats.WriteErrors++
	} else {
		s.stats.Writes++
	}
	s.mu.Unlock()
	return err
}

func (s *Store) put(e Entry) error {
	data, err := Encode(e)
	if err != nil {
		return err
	}
	name := fileName(e.Key)
	if s.hooks != nil {
		// The fault seam: the hook may tear the payload (a torn write
		// lands on disk and is quarantined by the next Load) or fail the
		// write outright.
		if data, err = s.hooks.BeforeWrite(name, data); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return s.writeAtomic(name, data)
}

// Encode serializes one entry in the on-disk (and on-wire /v1/sync)
// codec.
func Encode(e Entry) ([]byte, error) {
	if e.Instance == nil || e.Solution.Graph == nil || e.Solution.Sched.List == nil {
		return nil, fmt.Errorf("store: incomplete entry for key %q", e.Key)
	}
	instData, err := json.Marshal(e.Instance.App())
	if err != nil {
		return nil, fmt.Errorf("store: encoding instance: %w", err)
	}
	schedData, err := json.Marshal(e.Solution.Sched.List)
	if err != nil {
		return nil, fmt.Errorf("store: encoding schedule: %w", err)
	}
	doc := entryJSON{
		Version:         entryVersion,
		Key:             e.Key,
		Hash:            e.Instance.Hash(),
		Instance:        instData,
		Edges:           e.Solution.Graph.Graph().Edges(),
		Value:           e.Solution.Value,
		Exact:           e.Solution.Exact,
		SchedValue:      e.Solution.Sched.Value,
		SchedLowerBound: e.Solution.Sched.LowerBound,
		SchedExact:      e.Solution.Sched.Exact,
		SchedBottleneck: e.Solution.Sched.Bottleneck,
		Schedule:        schedData,
		Effort:          encodeEffort(e.Effort),
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return append(data, '\n'), nil
}

// writeAtomic writes data to name via a same-directory temp file, fsync
// and rename, so a crash never leaves a torn entry under the final name.
func (s *Store) writeAtomic(name string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Load decodes every entry in the directory in sorted file order (a
// deterministic warm-load order) and hands it to fn. Files that fail to
// decode or whose recomputed canonical hash disagrees with the stored key
// are counted as skipped, quarantined (renamed aside with a ".bad"
// suffix, so the next startup does not re-trip over them) and never
// served; the one exception is an entry carrying another codec version,
// which is skipped in place — it belongs to the codec that wrote it.
// A bad entry never aborts the load: the rest of the directory serves.
func (s *Store) Load(fn func(Entry)) error {
	names, err := s.entryNames()
	if err != nil {
		return err
	}
	var loaded, skipped, quarantined int64
	for _, name := range names {
		path := filepath.Join(s.dir, name)
		e, err := s.loadFile(path)
		if err != nil {
			skipped++
			if !errors.Is(err, errOtherVersion) {
				// Best-effort: a rename failure leaves the file for the
				// next load to skip again; the entry stays unserved
				// either way.
				if os.Rename(path, path+".bad") == nil {
					quarantined++
				}
			}
			continue
		}
		loaded++
		fn(e)
	}
	s.mu.Lock()
	s.stats.Loaded = loaded
	s.stats.Skipped = skipped
	s.stats.Quarantined = quarantined
	s.mu.Unlock()
	return nil
}

func (s *Store) entryNames() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), suffix) {
			continue
		}
		names = append(names, de.Name())
	}
	sort.Strings(names)
	return names, nil
}

// errOtherVersion marks an entry written by a different codec version —
// skipped, but never quarantined (it is not corrupt, just not ours).
var errOtherVersion = errors.New("store: other codec version")

// loadFile reconstructs one entry bit-identical to what Put serialized.
func (s *Store) loadFile(path string) (Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Entry{}, err
	}
	e, err := Decode(data)
	if err != nil {
		return Entry{}, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// Decode reconstructs one entry from its Encode bytes: the application is
// re-canonicalized (verifying the content hash), the execution graph
// rebuilt from its edge list, and the operation list restored through the
// oplist codec. An entry whose recomputed hash disagrees with its stored
// key is rejected — corrupt or forged bytes are never served, on the
// warm-load path and the /v1/sync import path alike.
func Decode(data []byte) (Entry, error) {
	var doc entryJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return Entry{}, fmt.Errorf("store: %w", err)
	}
	if doc.Version != entryVersion {
		return Entry{}, fmt.Errorf("%w: %q, want %q", errOtherVersion, doc.Version, entryVersion)
	}
	app := new(workflow.App)
	if err := app.UnmarshalJSON(doc.Instance); err != nil {
		return Entry{}, fmt.Errorf("store: instance: %w", err)
	}
	inst, err := canon.Canonicalize(app)
	if err != nil {
		return Entry{}, fmt.Errorf("store: %w", err)
	}
	if inst.Hash() != doc.Hash || !strings.HasPrefix(doc.Key, doc.Hash) {
		return Entry{}, fmt.Errorf("store: canonical hash mismatch")
	}
	eg, err := plan.Build(inst.App(), doc.Edges)
	if err != nil {
		return Entry{}, fmt.Errorf("store: graph: %w", err)
	}
	list, err := oplist.LoadList(eg.Weighted(), doc.Schedule)
	if err != nil {
		return Entry{}, fmt.Errorf("store: schedule: %w", err)
	}
	return Entry{
		Key:      doc.Key,
		Instance: inst,
		Solution: solve.Solution{
			Graph: eg,
			Sched: orchestrate.Result{
				List:       list,
				Value:      doc.SchedValue,
				LowerBound: doc.SchedLowerBound,
				Exact:      doc.SchedExact,
				Bottleneck: doc.SchedBottleneck,
			},
			Value: doc.Value,
			Exact: doc.Exact,
		},
		Effort: decodeEffort(doc.Effort),
	}, nil
}

// Flush forces directory metadata to disk (entry data is already fsynced
// per write) — the graceful-shutdown hook of cmd/filterd.
func (s *Store) Flush() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
