// Package faults is the deterministic fault-injection layer of the
// cluster's robustness suites (DESIGN.md §4): a seeded decision source
// plus two injection points — an http.RoundTripper wrapper for the wire
// and I/O hooks for the plan store — that drop, delay, truncate and error
// operations on a fixed, reproducible schedule.
//
// Determinism is the whole point. Every decision is a pure function of
// (seed, stream, n-th call on that stream): the n-th store write or the
// n-th forward to one peer sees the same fault in every run with the same
// seed, so a failing chaos test replays exactly. Concurrency only
// interleaves WHICH request draws which sequence number per stream; the
// properties the suites assert (zero client-visible 5xx, bit-identical
// answers, convergence) hold under every interleaving, which is what
// makes them race-enabled.
//
// The injector never changes an answer — it can only lose, slow, cut or
// fail an interaction. The cluster's job is to make that invisible to
// clients; the suites in internal/cluster prove it does.
package faults

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Action is one injected fault.
type Action int

const (
	// None: the operation proceeds untouched.
	None Action = iota
	// Drop: the operation fails as if the wire (or disk) swallowed it —
	// a transport error, no response.
	Drop
	// Error: the operation completes with a failure the other side
	// produced — an HTTP 502 on the wire, a write error in the store.
	Error
	// Truncate: the operation's payload is cut short mid-body — a peer
	// dying mid-response, a torn write.
	Truncate
	// Delay: the operation succeeds after an injected pause.
	Delay
)

// String names the action for logs.
func (a Action) String() string {
	switch a {
	case None:
		return "none"
	case Drop:
		return "drop"
	case Error:
		return "error"
	case Truncate:
		return "truncate"
	default:
		return "delay"
	}
}

// Config tunes an Injector. Rates are 1-in-N per call (0 disables that
// fault). Rate checks are ordered drop, error, truncate, delay: one call
// suffers at most one fault.
type Config struct {
	// Seed fixes the schedule. Two injectors with the same seed and
	// config make identical decisions on every stream.
	Seed int64
	// Drop fails 1-in-Drop operations with a transport-level error.
	Drop int
	// Err completes 1-in-Err operations with a produced failure (HTTP
	// 502 / write error).
	Err int
	// Truncate cuts 1-in-Truncate payloads short.
	Truncate int
	// Delay pauses 1-in-Delay operations for up to MaxDelay.
	Delay int
	// MaxDelay bounds one injected pause (default 20ms). The actual
	// pause is a deterministic fraction of it per decision.
	MaxDelay time.Duration
}

// Injector is a seeded fault source. Create with New; all methods are
// safe for concurrent use.
type Injector struct {
	cfg Config

	mu      sync.Mutex
	streams map[string]*uint64 // per-stream call counters

	// down marks targets (peer base URLs) whose every operation drops —
	// the "kill this replica" switch of the in-process suites, flipped
	// and restored without tearing down listeners.
	down sync.Map // string -> bool
}

// New returns an injector with the given schedule.
func New(cfg Config) *Injector {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 20 * time.Millisecond
	}
	return &Injector{cfg: cfg, streams: make(map[string]*uint64)}
}

// splitmix64 is the repository's stream-seeding mixer (internal/par uses
// the same construction): a full-avalanche pass over the call identity.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashStream folds a stream name into the seed (FNV-1a).
func hashStream(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// next returns the sequence number of this call on stream.
func (in *Injector) next(stream string) uint64 {
	in.mu.Lock()
	c, ok := in.streams[stream]
	if !ok {
		c = new(uint64)
		in.streams[stream] = c
	}
	n := *c
	*c++
	in.mu.Unlock()
	return n
}

// Decide draws the fault for the next call on stream: a pure function of
// (seed, stream, call number). The returned delay is meaningful only for
// Delay.
func (in *Injector) Decide(stream string) (Action, time.Duration) {
	n := in.next(stream)
	r := splitmix64(uint64(in.cfg.Seed) ^ hashStream(stream) ^ (n * 0x9e3779b97f4a7c15))
	pick := func(rate int, shift uint) bool {
		return rate > 0 && (r>>shift)%uint64(rate) == 0
	}
	switch {
	case pick(in.cfg.Drop, 0):
		return Drop, 0
	case pick(in.cfg.Err, 13):
		return Error, 0
	case pick(in.cfg.Truncate, 26):
		return Truncate, 0
	case pick(in.cfg.Delay, 39):
		// A deterministic fraction of MaxDelay in [1/8, 1].
		frac := 1 + (r>>52)%8
		return Delay, in.cfg.MaxDelay * time.Duration(frac) / 8
	}
	return None, 0
}

// SetDown marks (or clears) a target as dead: every operation whose
// stream has the target as a prefix drops unconditionally until restored.
// This is the deterministic stand-in for killing a process in the
// in-process suites.
func (in *Injector) SetDown(target string, dead bool) {
	if dead {
		in.down.Store(target, true)
	} else {
		in.down.Delete(target)
	}
}

// isDown reports whether stream addresses a target marked dead.
func (in *Injector) isDown(stream string) bool {
	dead := false
	in.down.Range(func(k, _ any) bool {
		if strings.HasPrefix(stream, k.(string)) {
			dead = true
			return false
		}
		return true
	})
	return dead
}

// errInjected marks a fault-injected transport failure.
type errInjected struct{ what string }

func (e *errInjected) Error() string { return "faults: injected " + e.what }

// roundTripper wraps a base transport with the injector's schedule. The
// stream of a request is its scheme://host, so each peer has its own
// deterministic fault sequence regardless of client concurrency.
type roundTripper struct {
	in   *Injector
	base http.RoundTripper
}

// RoundTripper wraps base (nil: http.DefaultTransport) with fault
// injection. Pass it as the Transport of the router's forwarding client.
func (in *Injector) RoundTripper(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &roundTripper{in: in, base: base}
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	stream := req.URL.Scheme + "://" + req.URL.Host
	if rt.in.isDown(stream) {
		return nil, &errInjected{what: "drop (target down): " + stream}
	}
	action, pause := rt.in.Decide(stream)
	switch action {
	case Drop:
		return nil, &errInjected{what: "drop: " + stream}
	case Error:
		// A produced failure: the peer answered, but with a 502. The
		// caller must treat it as a peer failure, not a client answer.
		return &http.Response{
			StatusCode: http.StatusBadGateway,
			Status:     "502 Bad Gateway (injected)",
			Proto:      req.Proto,
			ProtoMajor: req.ProtoMajor,
			ProtoMinor: req.ProtoMinor,
			Header:     http.Header{"Content-Type": []string{"text/plain"}},
			Body:       io.NopCloser(strings.NewReader("faults: injected error")),
			Request:    req,
		}, nil
	case Delay:
		timer := time.NewTimer(pause)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	resp, err := rt.base.RoundTrip(req)
	if err != nil || action != Truncate {
		return resp, err
	}
	// Truncate: cut the body after a deterministic handful of bytes; the
	// reader then fails, so the caller sees a mid-body peer death.
	resp.Body = &truncatingBody{rc: resp.Body, remaining: 16}
	resp.ContentLength = -1
	resp.Header.Del("Content-Length")
	return resp, nil
}

// truncatingBody yields at most remaining bytes, then fails the read —
// an unexpected cut, not a clean EOF, so buffered readers detect it.
type truncatingBody struct {
	rc        io.ReadCloser
	remaining int
}

func (t *truncatingBody) Read(p []byte) (int, error) {
	if t.remaining <= 0 {
		return 0, &errInjected{what: "truncated body"}
	}
	if len(p) > t.remaining {
		p = p[:t.remaining]
	}
	n, err := t.rc.Read(p)
	t.remaining -= n
	if err == io.EOF {
		// The upstream body really ended inside the budget: pass the EOF
		// through, this call drew a truncation the body was too short to
		// suffer.
		return n, err
	}
	if t.remaining <= 0 {
		t.rc.Close()
		return n, &errInjected{what: "truncated body"}
	}
	return n, err
}

func (t *truncatingBody) Close() error { return t.rc.Close() }

// StoreHooks adapts the injector to the plan store's I/O hook points
// (store.Hooks): writes on the "store.write" stream can drop (write
// error), error, truncate (torn payload on disk) or delay. The store's
// quarantine path turns a truncated entry into a skipped-and-renamed
// file on the next load instead of a startup abort.
func (in *Injector) StoreHooks() StoreHooks {
	return StoreHooks{in: in}
}

// StoreHooks is the store-facing injection point. Its method set matches
// store.Hooks so the store package needs no dependency on this one.
type StoreHooks struct {
	in *Injector
}

// BeforeWrite intercepts one entry write: it may fail the write, tear
// the payload, or pause. A nil receiver injects nothing.
func (h StoreHooks) BeforeWrite(name string, data []byte) ([]byte, error) {
	if h.in == nil {
		return data, nil
	}
	action, pause := h.in.Decide("store.write")
	switch action {
	case Drop, Error:
		return nil, &errInjected{what: "store write failure: " + name}
	case Truncate:
		if len(data) > 2 {
			return data[:len(data)/2], nil
		}
	case Delay:
		time.Sleep(pause)
	}
	return data, nil
}

// String renders the schedule for logs.
func (in *Injector) String() string {
	return fmt.Sprintf("faults(seed=%d drop=1/%d err=1/%d trunc=1/%d delay=1/%d)",
		in.cfg.Seed, in.cfg.Drop, in.cfg.Err, in.cfg.Truncate, in.cfg.Delay)
}
