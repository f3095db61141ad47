package service

// The replica-to-replica synchronization surface behind POST /v1/sync
// (DESIGN.md §4): bulk export/import of the two pieces of state a shard
// owner accumulates that its co-owners need to serve in its place —
//
//   - the drift registry: which canonical instances may be PATCHed, so a
//     failover PATCH finds its target instead of 404ing;
//   - solved plans: cache entries in the store codec (store.Encode), so
//     a co-owner answers warm what its peer already solved, including
//     the re-planned entries a drift PATCH produced.
//
// Determinism makes the merge trivial: a canonical hash names exactly one
// instance and a cache key exactly one solution, so "sync" is set union —
// no vector clocks, no last-writer-wins, no reconciliation. An import
// whose bytes disagree with their claimed identity (hash mismatch,
// decode failure) is rejected and counted; a key both sides already hold
// with different solution values would falsify the determinism invariant
// and is counted as a conflict (and kept local — the local entry already
// served clients).
//
// The anti-entropy loop driving this surface lives in internal/cluster
// (Gossip); the service only answers digests and merges imports.

import (
	"encoding/json"
	"fmt"

	"repro/internal/canon"
	"repro/internal/store"
	"repro/internal/workflow"
)

// SyncDigest summarizes the syncable state of a replica: the canonical
// hashes registered as drift targets and the cache keys of the completed
// plan entries.
type SyncDigest struct {
	Hashes []string `json:"hashes"`
	Keys   []string `json:"keys"`
}

// SyncInstance is one registry entry on the wire: the canonical
// application document plus the hash the sender claims for it. The
// receiver re-canonicalizes and rejects a mismatch.
type SyncInstance struct {
	Hash     string          `json:"hash"`
	Instance json.RawMessage `json:"instance"`
}

// SyncStats counts the replica's sync traffic.
type SyncStats struct {
	// AcceptedInstances/AcceptedEntries count imported items;
	// Duplicates the imports already present locally; Rejected the
	// imports that failed verification; Conflicts the impossible case —
	// an already-present key whose stored solution disagrees with the
	// imported one (determinism says zero, the counter is the evidence).
	AcceptedInstances int64
	AcceptedEntries   int64
	Duplicates        int64
	Rejected          int64
	Conflicts         int64
	// BytesIn/BytesOut total the store-codec entry bytes imported and
	// exported — the "sync bytes streamed" series on /metrics.
	BytesIn  int64
	BytesOut int64
}

// SyncDigest snapshots the replica's syncable identity. Registry and
// cache are bounded LRUs, so the digest is bounded too.
func (s *Server) SyncDigest() SyncDigest {
	d := SyncDigest{Hashes: s.registry.Keys(), Keys: s.cache.Keys()}
	if d.Hashes == nil {
		d.Hashes = []string{}
	}
	if d.Keys == nil {
		d.Keys = []string{}
	}
	return d
}

// ExportInstances renders the registered instances named by hashes
// (unknown hashes are skipped — the digest that advertised them may have
// aged out of the LRU since). Peek, not Get: exporting on a peer's behalf
// must not distort the local LRU.
func (s *Server) ExportInstances(hashes []string) []SyncInstance {
	var out []SyncInstance
	for _, h := range hashes {
		r, ok := s.registry.Peek(h)
		if !ok {
			continue
		}
		data, err := json.Marshal(r.inst.App())
		if err != nil {
			continue
		}
		out = append(out, SyncInstance{Hash: h, Instance: data})
	}
	return out
}

// ExportEntries renders the completed cache entries named by keys in the
// store codec (unknown or in-flight keys are skipped). Peek, not Get:
// exporting on a peer's behalf must not distort the local LRU.
func (s *Server) ExportEntries(keys []string) []json.RawMessage {
	var out []json.RawMessage
	for _, k := range keys {
		val, ok := s.cache.Peek(k)
		if !ok {
			continue
		}
		data, err := store.Encode(store.Entry{
			Key:      k,
			Instance: val.inst,
			Solution: val.sol,
			Effort:   val.effort,
		})
		if err != nil {
			continue
		}
		s.syncBytesOut.Add(int64(len(data)))
		out = append(out, data)
	}
	return out
}

// ImportInstance merges one registry entry: the document is
// re-canonicalized and registered under its recomputed hash. A claimed
// hash that disagrees with the recomputed one is rejected — the wire may
// not rename an instance.
func (s *Server) ImportInstance(si SyncInstance) error {
	app := new(workflow.App)
	if err := json.Unmarshal(si.Instance, app); err != nil {
		s.syncRejected.Add(1)
		return fmt.Errorf("service: sync instance: %w", err)
	}
	inst, err := canon.Canonicalize(app)
	if err != nil {
		s.syncRejected.Add(1)
		return fmt.Errorf("service: sync instance: %w", err)
	}
	if si.Hash != "" && si.Hash != inst.Hash() {
		s.syncRejected.Add(1)
		return fmt.Errorf("service: sync instance hash %s recomputes to %s", si.Hash, inst.Hash())
	}
	if _, known := s.registry.Peek(inst.Hash()); known {
		s.syncDuplicates.Add(1)
		return nil
	}
	s.register(inst)
	s.syncAcceptedInstances.Add(1)
	return nil
}

// ImportEntry merges one plan entry (store codec bytes): decoded and
// verified by store.Decode, seeded into the cache as source "sync",
// registered as a drift target, and — when a store is attached —
// persisted write-through so the entry survives this replica's own
// restarts. An already-present key is a duplicate, unless its stored
// value disagrees with the import, which is a conflict (kept local).
func (s *Server) ImportEntry(data []byte) error {
	s.syncBytesIn.Add(int64(len(data)))
	e, err := store.Decode(data)
	if err != nil {
		s.syncRejected.Add(1)
		return fmt.Errorf("service: sync entry: %w", err)
	}
	if existing, ok := s.cache.Peek(e.Key); ok {
		if !existing.sol.Value.Equal(e.Solution.Value) {
			s.syncConflicts.Add(1)
			return fmt.Errorf("service: sync entry %s conflicts with the local solution", e.Key)
		}
		s.syncDuplicates.Add(1)
		return nil
	}
	if !s.cache.Seed(e.Key, &cacheEntry{sol: e.Solution, inst: e.Instance, src: "sync", effort: e.Effort}) {
		// Lost a race with an in-flight local solve for the same key —
		// which will complete with the identical solution.
		s.syncDuplicates.Add(1)
		return nil
	}
	s.register(e.Instance)
	if s.cfg.Store != nil {
		if err := s.cfg.Store.Put(e); err != nil {
			s.logger.Warn("sync entry persist failed", "key", e.Key, "err", err)
		}
	}
	s.syncAcceptedEntries.Add(1)
	return nil
}

// SyncStats snapshots the sync counters.
func (s *Server) SyncStats() SyncStats {
	return SyncStats{
		AcceptedInstances: s.syncAcceptedInstances.Load(),
		AcceptedEntries:   s.syncAcceptedEntries.Load(),
		Duplicates:        s.syncDuplicates.Load(),
		Rejected:          s.syncRejected.Load(),
		Conflicts:         s.syncConflicts.Load(),
		BytesIn:           s.syncBytesIn.Load(),
		BytesOut:          s.syncBytesOut.Load(),
	}
}

// syncMaxInstances and syncMaxEntries cap one exchange's payload in each
// direction. The anti-entropy loop converges over successive rounds, so
// a cap only spreads a large transfer across rounds — it never loses
// state — while keeping every request inside the body bound.
const (
	syncMaxInstances = 256
	syncMaxEntries   = 64
)

// SyncRequest is one push-pull exchange from a peer: its digest plus the
// items it pushes.
type SyncRequest struct {
	Digest    SyncDigest        `json:"digest"`
	Instances []SyncInstance    `json:"instances,omitempty"`
	Entries   []json.RawMessage `json:"entries,omitempty"`
}

// SyncResponse answers an exchange: the merge outcome, the items the
// sender's digest lacks (bounded push-back), and the items this replica
// still wants (the sender follows up with a push).
type SyncResponse struct {
	AcceptedInstances int               `json:"accepted_instances"`
	AcceptedEntries   int               `json:"accepted_entries"`
	Rejected          int               `json:"rejected"`
	Instances         []SyncInstance    `json:"instances,omitempty"`
	Entries           []json.RawMessage `json:"entries,omitempty"`
	Want              SyncDigest        `json:"want"`
}

// SyncExchange executes one push-pull merge: imports the pushed items,
// then — against the post-import local digest, so just-pushed items are
// neither re-requested nor echoed back — exports what the sender lacks
// and names what this replica still wants.
func (s *Server) SyncExchange(req SyncRequest) SyncResponse {
	var resp SyncResponse
	for _, si := range req.Instances {
		if err := s.ImportInstance(si); err != nil {
			s.logger.Warn("sync instance rejected", "err", err)
			resp.Rejected++
			continue
		}
		resp.AcceptedInstances++
	}
	for _, e := range req.Entries {
		if err := s.ImportEntry(e); err != nil {
			s.logger.Warn("sync entry rejected", "err", err)
			resp.Rejected++
			continue
		}
		resp.AcceptedEntries++
	}
	local := s.SyncDigest()
	resp.Instances = s.ExportInstances(missing(local.Hashes, req.Digest.Hashes, syncMaxInstances))
	resp.Entries = s.ExportEntries(missing(local.Keys, req.Digest.Keys, syncMaxEntries))
	resp.Want = SyncDigest{
		Hashes: missing(req.Digest.Hashes, local.Hashes, syncMaxInstances),
		Keys:   missing(req.Digest.Keys, local.Keys, syncMaxEntries),
	}
	if resp.Want.Hashes == nil {
		resp.Want.Hashes = []string{}
	}
	if resp.Want.Keys == nil {
		resp.Want.Keys = []string{}
	}
	return resp
}

// missing returns the members of want absent from have, preserving
// want's order, capped at limit (<= 0: uncapped).
func missing(want, have []string, limit int) []string {
	haveSet := make(map[string]struct{}, len(have))
	for _, h := range have {
		haveSet[h] = struct{}{}
	}
	var out []string
	for _, w := range want {
		if _, ok := haveSet[w]; ok {
			continue
		}
		out = append(out, w)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}
