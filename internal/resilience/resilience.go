// Package resilience provides the failure-isolation primitives of the
// cluster layer (DESIGN.md §5): a circuit breaker and a bounded
// retry-with-backoff helper.
//
// The breaker is a per-peer state machine wired around every forward in
// internal/cluster: Closed (traffic flows; K consecutive failures open
// it) → Open (traffic is rejected without touching the peer until the
// cooldown elapses) → HalfOpen (exactly one probe is let through; its
// success closes the breaker, its failure re-opens it). A flapping
// replica is therefore isolated after K failures instead of being
// hammered by every request, while the deterministic local solve keeps
// answering in its place — the breaker decides only WHO computes an
// answer, never what the answer is.
//
// Retry bounds re-attempts of idempotent operations: a fixed number of
// tries spaced by the Backoff ladder, aborted early by context death or a
// Permanent error. Planning forwards are idempotent by the determinism
// invariant (the same request always has the same answer), so a retry
// can never produce a different response — it only rides out transient
// transport noise.
//
// Backoff is the module's one delay ladder and its one jitter source:
// the router's forward retries (Retry), internal/exec's 429/503 wait and
// its SSE reconnect loop all read it.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// State is the breaker position.
type State int32

const (
	// Closed: traffic flows; consecutive failures are counted.
	Closed State = iota
	// Open: traffic is rejected until the cooldown elapses.
	Open
	// HalfOpen: one probe is in flight; its outcome decides the state.
	HalfOpen
)

// String names the state for stats and metrics labels.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	default:
		return "half-open"
	}
}

// BreakerConfig tunes a Breaker. The zero value requests defaults.
type BreakerConfig struct {
	// Threshold is K: consecutive failures that open the breaker
	// (default 3).
	Threshold int
	// Cooldown is the Open → HalfOpen delay (default 5s).
	Cooldown time.Duration
	// Now is the clock (default time.Now) — injectable for tests.
	Now func() time.Time
	// OnTransition, when set, observes every state change (from, to).
	// It runs outside the breaker's lock, so it may log or call back into
	// the breaker; consequently it can observe states slightly out of
	// order under contention — acceptable for its observability purpose.
	OnTransition func(from, to State)
}

// Breaker is a circuit breaker. Create with NewBreaker; all methods are
// safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	failures int       // consecutive failures while Closed
	openedAt time.Time // of the transition to Open (or its refresh)
	probing  bool      // HalfOpen: the single probe slot is taken
	opens    int64     // transitions to Open, for metrics
}

// NewBreaker returns a Closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 3
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg}
}

// Allow reports whether a request may proceed. Closed always allows.
// Open allows nothing until the cooldown has elapsed, at which point the
// breaker moves to HalfOpen and this call takes the single probe slot.
// HalfOpen allows only the caller holding that slot; everyone else is
// rejected until the probe reports Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	var moved bool
	var allowed bool
	switch b.state {
	case Closed:
		allowed = true
	case Open:
		if b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
			b.state = HalfOpen
			b.probing = true
			moved = true
			allowed = true
		}
	default: // HalfOpen
		if !b.probing {
			b.probing = true
			allowed = true
		}
	}
	b.mu.Unlock()
	if moved {
		b.notify(Open, HalfOpen)
	}
	return allowed
}

// Success records a successful interaction with the peer: the failure
// streak resets and the breaker closes (from any state — a peer that
// demonstrably answered is healthy, whether the proof came from a
// half-open probe or an out-of-band health check).
func (b *Breaker) Success() {
	b.mu.Lock()
	from := b.state
	b.state = Closed
	b.failures = 0
	b.probing = false
	b.mu.Unlock()
	if from != Closed {
		b.notify(from, Closed)
	}
}

// Failure records a failed interaction. Closed: the streak grows, and at
// Threshold the breaker opens. HalfOpen: the probe failed, the breaker
// re-opens. Open: the cooldown clock refreshes (out-of-band failures —
// health probes — keep a dead peer's breaker open without waiting for a
// half-open trial).
func (b *Breaker) Failure() {
	b.mu.Lock()
	from := b.state
	opened := false
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.openLocked()
			opened = true
		}
	case HalfOpen:
		b.openLocked()
		opened = true
	case Open:
		b.openedAt = b.cfg.Now()
	}
	b.mu.Unlock()
	if opened {
		b.notify(from, Open)
	}
}

// openLocked transitions to Open. Callers hold b.mu.
func (b *Breaker) openLocked() {
	b.state = Open
	b.failures = 0
	b.probing = false
	b.openedAt = b.cfg.Now()
	b.opens++
}

// notify fires the transition hook, if any, outside the breaker's lock.
func (b *Breaker) notify(from, to State) {
	if b.cfg.OnTransition != nil {
		b.cfg.OnTransition(from, to)
	}
}

// State returns the current position. An elapsed cooldown only shows
// after the next Allow — State never mutates.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens counts the transitions into Open since creation.
func (b *Breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps err so Retry stops immediately instead of re-trying —
// for failures more attempts cannot fix (a request that cannot be built,
// a breaker that opened mid-retry, a caller whose own context died).
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err carries the Permanent marker.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// Backoff is a doubling delay ladder: Base before the first re-attempt,
// doubling per attempt, capped at Max (0: uncapped — the caller bounds
// the attempts), plus Jitter.
type Backoff struct {
	Base, Max time.Duration
}

// jitterSeq steps Jitter process-wide.
var jitterSeq atomic.Int64

// Jitter is a deterministic spread in [0, Base), stepped per call
// process-wide, so the clients one burst released (a shed, a dead peer)
// do not re-converge on the same instant.
func (b Backoff) Jitter() time.Duration {
	return b.Base * time.Duration(jitterSeq.Add(1)*37%100) / 100
}

// Delay is the wait before re-attempt attempt (0-based): Base·2^attempt,
// capped at Max, plus Jitter.
func (b Backoff) Delay(attempt int) time.Duration {
	d := b.Base
	for ; attempt > 0 && (b.Max <= 0 || d < b.Max); attempt-- {
		d *= 2
	}
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	return d + b.Jitter()
}

// Retry runs op up to attempts times (minimum 1), sleeping
// backoff.Delay between attempts, until op succeeds, returns a Permanent
// error, or ctx dies (a nil ctx never dies). It returns nil on success
// and the last error otherwise, unwrapped of the Permanent marker.
func Retry(ctx context.Context, attempts int, backoff Backoff, op func() error) error {
	if attempts < 1 {
		attempts = 1
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			t := time.NewTimer(backoff.Delay(i - 1))
			select {
			case <-t.C:
			case <-done:
				t.Stop()
				return ctx.Err()
			}
		}
		if err = op(); err == nil {
			return nil
		}
		var p *permanentError
		if errors.As(err, &p) {
			return p.err
		}
		if ctx != nil && ctx.Err() != nil {
			return fmt.Errorf("%w (last attempt: %w)", ctx.Err(), err)
		}
	}
	return err
}
