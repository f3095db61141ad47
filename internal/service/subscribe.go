package service

// Drift subscriptions: the streaming half of the re-planning story. A
// client that planned an instance can subscribe to its canonical hash and
// is pushed one event whenever a PATCH re-plan against that hash changes
// the objective — instead of polling /v1/plan for a value that almost
// never moves. The HTTP surface (http.go) exposes this as server-sent
// events on GET /v1/subscribe/{hash}.
//
// Events are numbered per hash (1, 2, ...) and the hub retains the last
// replayRing events of every hash it ever published on, so a subscriber
// that reconnects with the ID of the last event it saw (the SSE
// Last-Event-ID header) replays the events fired during the gap instead of
// silently missing them. The in-connection `lagged` signal (a stalled
// consumer overflowing its buffer) and the resume gap (a reconnect beyond
// the retained ring) share one meaning: "you missed events, re-fetch the
// plan".

import (
	"sync"
	"sync/atomic"

	"repro/internal/rat"
	"repro/internal/workflow"
)

// Event is one re-planning notification: a PATCH against Hash produced a
// plan under NewHash whose objective moved from OldValue to NewValue. ID
// numbers the events of Hash from 1; NewApp is the drifted instance (its
// canonical application), so a consumer can re-plan it — e.g. the stream
// executor fetching the new schedule after an externally triggered PATCH —
// without re-deriving the updates.
//
// The JSON form is the data line of the SSE replan frame (wire.go); the ID
// travels on the frame's id line instead.
type Event struct {
	ID       uint64        `json:"-"`
	Hash     string        `json:"hash"`
	NewHash  string        `json:"new_hash"`
	OldValue rat.Rat       `json:"old_value"`
	NewValue rat.Rat       `json:"new_value"`
	NewApp   *workflow.App `json:"instance,omitempty"`
}

// subscriberBuffer bounds each subscription's undelivered events. Drift
// re-plans are rare next to plan requests, so the buffer only fills when a
// consumer stalls; events beyond it are dropped (counted, and flagged on
// the subscription so the consumer learns it missed something) rather than
// blocking the drift path on a dead client.
const subscriberBuffer = 16

// replayRing bounds the per-hash event history kept for Last-Event-ID
// resume. A reconnect further behind than this replays nothing and reports
// the gap instead.
const replayRing = 64

// maxTopics bounds the number of per-hash histories the hub retains.
// Topics are created by publishes — the drift path of registered
// instances — so the bound is a backstop, not a working limit; on overflow
// the topic with the oldest last event is evicted (its subscribers keep
// their live channels, only the resume history is lost).
const maxTopics = 4096

// Subscription is one listener's handle: the event channel plus the lag
// counter that records events dropped against this subscriber while its
// buffer was full. A drop can only happen when the buffer holds
// subscriberBuffer undelivered events, so a lagged consumer is always
// about to wake up on a buffered event and see the flag.
type Subscription struct {
	ch     chan Event
	lagged atomic.Int64
}

// Events returns the channel re-plan events arrive on.
func (sub *Subscription) Events() <-chan Event { return sub.ch }

// Lagged drains the lag counter: the number of events dropped against this
// subscriber since the last call. A non-zero return means the consumer
// missed re-plans and should re-fetch the current plan instead of trusting
// the event stream to be complete.
func (sub *Subscription) Lagged() int64 { return sub.lagged.Swap(0) }

// topic is the per-hash hub state: the live subscribers, the event
// sequence, and the bounded replay history (ring[0] is the oldest retained
// event).
type topic struct {
	subs map[*Subscription]struct{}
	seq  uint64
	ring []Event
}

// hub fans re-plan events out to the subscribers of each hash and retains
// the per-hash history for Last-Event-ID resume. The zero value is ready
// to use.
type hub struct {
	mu     sync.Mutex
	topics map[string]*topic

	published atomic.Int64
	dropped   atomic.Int64
	replayed  atomic.Int64
}

func (h *hub) topicLocked(hash string) *topic {
	if h.topics == nil {
		h.topics = make(map[string]*topic)
	}
	t := h.topics[hash]
	if t == nil {
		if len(h.topics) >= maxTopics {
			h.evictLocked()
		}
		t = &topic{}
		h.topics[hash] = t
	}
	return t
}

// evictLocked drops the subscriber-free topic with the lowest event
// sequence (≈ the coldest history). Topics with live subscribers are never
// evicted — their channels must keep working — so the map can transiently
// exceed maxTopics by the number of concurrently subscribed hashes.
func (h *hub) evictLocked() {
	var victim string
	var low uint64
	for hash, t := range h.topics {
		if len(t.subs) > 0 {
			continue
		}
		if victim == "" || t.seq < low {
			victim, low = hash, t.seq
		}
	}
	if victim != "" {
		delete(h.topics, victim)
	}
}

// liveOnly is the sinceID sentinel for a fresh subscription: no replay,
// events from now on. Any real resume cursor is the ID of the last event
// the consumer saw (0 = subscribed but saw nothing yet).
const liveOnly = ^uint64(0)

// subscribe registers a listener for hash and returns it plus the cancel
// function (idempotent; always call it — it releases the slot). sinceID is
// the resume cursor: liveOnly subscribes with no replay; otherwise every
// retained event with ID > sinceID is replayed (atomically with the
// registration, so no event falls between the replay slice and the live
// channel) and missed counts the events lost beyond the retained ring.
func (h *hub) subscribe(hash string, sinceID uint64) (sub *Subscription, replay []Event, missed uint64, cancel func()) {
	sub = &Subscription{ch: make(chan Event, subscriberBuffer)}
	h.mu.Lock()
	t := h.topicLocked(hash)
	if t.subs == nil {
		t.subs = make(map[*Subscription]struct{})
	}
	t.subs[sub] = struct{}{}
	if sinceID != liveOnly && t.seq > sinceID {
		oldest := t.seq - uint64(len(t.ring)) + 1 // ID of ring[0] (seq+1 when empty)
		if sinceID+1 < oldest {
			missed = oldest - sinceID - 1
		}
		for _, ev := range t.ring {
			if ev.ID > sinceID {
				replay = append(replay, ev)
			}
		}
		h.replayed.Add(int64(len(replay)))
	}
	h.mu.Unlock()
	return sub, replay, missed, func() {
		h.mu.Lock()
		if t, ok := h.topics[hash]; ok {
			delete(t.subs, sub)
		}
		h.mu.Unlock()
	}
}

// publish assigns ev the hash's next event ID, retains it for resume, and
// delivers it to every current subscriber: exactly one send per
// subscriber, non-blocking (a full buffer counts a drop on the hub AND on
// the subscription — the consumer finds out — instead of stalling the
// drift request). The assigned ID is returned.
func (h *hub) publish(hash string, ev Event) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.topicLocked(hash)
	t.seq++
	ev.ID = t.seq
	if len(t.ring) == replayRing {
		copy(t.ring, t.ring[1:])
		t.ring = t.ring[:replayRing-1]
	}
	t.ring = append(t.ring, ev)
	for sub := range t.subs {
		select {
		case sub.ch <- ev:
			h.published.Add(1)
		default:
			sub.lagged.Add(1)
			h.dropped.Add(1)
		}
	}
	return ev.ID
}

// subscribers counts the currently open subscriptions across all hashes.
func (h *hub) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, t := range h.topics {
		n += len(t.subs)
	}
	return n
}

// Subscribe registers for re-plan events against a canonical hash: every
// PATCH re-plan of that hash whose objective changes delivers exactly one
// Event. The returned cancel releases the subscription; events arriving
// with no reader beyond the buffer are dropped — never blocking the drift
// path — and recorded on the Subscription's lag counter so the consumer
// can detect the gap.
func (s *Server) Subscribe(hash string) (*Subscription, func()) {
	sub, _, _, cancel := s.hub.subscribe(hash, liveOnly)
	return sub, cancel
}

// SubscribeSince is Subscribe resuming from a previously seen event ID:
// retained events with ID > sinceID are returned for replay (in order,
// atomically consistent with the live channel — an event is replayed or
// delivered, never both, never neither) and missed counts events lost
// beyond the retained history, in which case the consumer should re-fetch
// the current plan. sinceID 0 means "subscribed before, saw nothing":
// every retained event replays. This is the engine behind the SSE
// Last-Event-ID resume on GET /v1/subscribe/{hash}.
func (s *Server) SubscribeSince(hash string, sinceID uint64) (sub *Subscription, replay []Event, missed uint64, cancel func()) {
	return s.hub.subscribe(hash, sinceID)
}
