package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// runConfig is what every workload is given: the input seed, how long one
// measured phase lasts, how many closed-loop clients drive it, and a
// scratch directory inside the checkout for anything written to disk.
type runConfig struct {
	seed    int64
	seconds float64
	clients int
	tmp     string
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// workload is one named traffic mix. setup builds its inputs and servers
// (timed as setup_s); the returned env runs the measured phases.
type workload struct {
	name  string
	why   string
	setup func(cfg runConfig) (env, error)
}

// env is one set-up instance of a workload.
type env interface {
	// measure drives the workload's closed loop for about d and checks
	// every answer. With traced it also records spans around the
	// benchmark's calls into each layer, on the same operation list.
	measure(d time.Duration, traced bool) *sample
	// layers adds the per-layer metrics this workload exercises, from an
	// untraced and a traced sample of the same operation list.
	layers(untraced, traced *sample, m map[string]float64)
	close()
}

// opRecord is one successful operation: when it began and ended, in wall ns
// since the phase began.
type opRecord struct {
	kind       string
	start, end int64
}

// sample is the outcome of one measured phase. While the phase runs each
// client fills its own; runClients merges them and converts wall time to
// reference time (refclock.go), so elapsed and lat are in reference seconds
// and milliseconds.
type sample struct {
	epoch   time.Time
	elapsed time.Duration
	// speed is the phase's reference time over its wall time: how fast the
	// host ran against the reference host.
	speed float64
	// ops counts completed units of work (plans, requests, tuples);
	// attempted and failed count operations. An operation that errors, is
	// shed or returns a wrong answer is failed and contributes no latency.
	ops       int
	attempted int
	failed    int
	notes     []string
	// done holds the client's successful operations and count their number
	// by kind; lat is filled at the merge: per-operation latencies in ms by
	// kind ("" is every kind).
	done  []opRecord
	count map[string]int
	clock speedClock
	lat   map[string][]float64
	spans []span
	// layers caches byLayer(spans) for layerTimes.
	layers map[string]*layerTime
	// extra sums workload-specific measurements across clients; data
	// carries a workload's own records to its layers().
	extra map[string]float64
	data  any
}

func newSample(epoch time.Time) *sample {
	return &sample{
		epoch: epoch,
		count: make(map[string]int),
		clock: speedClock{probe: kernelProbe()}, // the hit workloads' clients replace it
		lat:   make(map[string][]float64),
		extra: make(map[string]float64),
	}
}

// ok records a successful operation of the given kind that began at t0 and
// took d, and gives the reference clock its turn.
func (s *sample) ok(kind string, t0 time.Time, d time.Duration) {
	start := int64(t0.Sub(s.epoch))
	s.attempted++
	s.ops++
	s.count[kind]++
	s.done = append(s.done, opRecord{kind, start, start + int64(d)})
	s.clock.tick(s.epoch, start+int64(d))
}

// okN records a successful operation that completed n units of work.
func (s *sample) okN(kind string, t0 time.Time, d time.Duration, n int) {
	s.ok(kind, t0, d)
	s.ops += n - 1
}

// fail records a failed operation; the first few reasons are kept.
func (s *sample) fail(format string, args ...any) {
	s.attempted++
	s.mismatch(format, args...)
}

// mismatch records a wrong answer found after the operation was counted.
func (s *sample) mismatch(format string, args ...any) {
	s.failed++
	if len(s.notes) < 5 {
		s.notes = append(s.notes, fmt.Sprintf(format, args...))
	}
}

// failedSample is the outcome of a phase that could not start.
func failedSample(format string, args ...any) *sample {
	s := newSample(time.Now())
	s.fail(format, args...)
	return s
}

// merge folds a client's sample into s, its latencies read on ref.
func (s *sample) merge(o *sample, ref *refTime) {
	s.ops += o.ops
	s.attempted += o.attempted
	s.failed += o.failed
	for _, n := range o.notes {
		if len(s.notes) < 5 {
			s.notes = append(s.notes, n)
		}
	}
	for _, op := range o.done {
		ms := (ref.at(op.end) - ref.at(op.start)) / 1e6
		s.lat[""] = append(s.lat[""], ms)
		if op.kind != "" {
			s.lat[op.kind] = append(s.lat[op.kind], ms)
		}
	}
	for k, v := range o.extra {
		s.extra[k] += v
	}
}

// sorted returns the latencies of a kind in ascending order.
func (s *sample) sorted(kind string) []float64 {
	xs := s.lat[kind]
	sort.Float64s(xs)
	return xs
}

// layerTimes reduces the sample's spans to per-layer times, once.
func (s *sample) layerTimes() map[string]*layerTime {
	if s.layers == nil {
		s.layers = byLayer(s.spans)
	}
	return s.layers
}

// rate is completed work per second of the measured phase.
func (s *sample) rate() float64 { return ratio(float64(s.ops), s.elapsed.Seconds()) }

// serverCounters snapshots the counters planning servers expose, summed
// over the given servers, into a sample under their per-layer metric names.
func serverCounters(s *sample, servers ...*service.Server) {
	var hits, lookups, memoHits, memoLookups float64
	for _, srv := range servers {
		st := srv.Stats()
		s.extra["service.solves"] += float64(st.Solves)
		s.extra["service.shed"] += float64(st.Shed)
		s.extra["plancache.evictions"] += float64(st.Cache.Evictions)
		s.extra["plancache.coalesced"] += float64(st.Cache.Coalesced)
		s.extra["store.writes"] += float64(st.Store.Writes)
		s.extra["store.write_errors"] += float64(st.Store.WriteErrors)
		hits += float64(st.Cache.Hits)
		lookups += float64(st.Cache.Hits + st.Cache.Misses + st.Cache.Coalesced)
		memoHits += float64(st.MemoHits)
		memoLookups += float64(st.MemoHits + st.MemoMisses)
	}
	s.extra["plancache.hit_ratio"] = ratio(hits, lookups)
	s.extra["service.memo_hit_ratio"] = ratio(memoHits, memoLookups)
}

// copyCounters copies the counters a measured phase snapshotted.
func copyCounters(s *sample, m map[string]float64) {
	for name, v := range s.extra {
		if _, ok := m[name]; ok {
			m[name] = v
		}
	}
}

// quietLogger gates at the shipped level (info) and discards the output, so
// servers do the logging work cmd/filterd's defaults do without the
// benchmark's stderr becoming part of the measurement.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// newReplica builds a planning server the way cmd/filterd does with no
// flags: Workers = all CPUs, cache 256, memo 4096, a 256-span request ring
// and a metrics registry (both returned, because in router mode filterd
// shares them with the router). st may be nil (no -data-dir).
func newReplica(st *store.Store) (*service.Server, *metrics.Registry, *obs.Tracer) {
	reg, tracer := metrics.New(), obs.NewTracer(256)
	return service.New(service.Config{Store: st, Metrics: reg, Tracer: tracer, Logger: quietLogger()}), reg, tracer
}

// listener serves a handler on a loopback port, like cmd/filterd's
// http.Server.
type listener struct {
	url string
	srv *http.Server
}

func listen(h http.Handler) (*listener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(l) // returns ErrServerClosed on shutdown
	return &listener{url: "http://" + l.Addr().String(), srv: srv}, nil
}

// close stops the server at once: by the time a workload closes its
// listeners every request it sent has been answered, so there is nothing to
// drain (and a graceful Shutdown would wait on the router's idle probes).
func (l *listener) close() { l.srv.Close() }

// httpClient is one closed-loop client: one keep-alive connection and a
// reused response buffer.
type httpClient struct {
	c   *http.Client
	buf bytes.Buffer
}

func newHTTPClient() *httpClient {
	return &httpClient{c: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

// do sends one request and returns the status, headers and body. The body
// aliases the client's buffer and is valid until the next call.
func (h *httpClient) do(method, url string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	h.buf.Reset()
	if _, err := h.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, resp.Header, nil, err
	}
	return resp.StatusCode, resp.Header, h.buf.Bytes(), nil
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// runClients runs fn on n goroutines, one sample and (when traced) one
// trace each, and returns the merged sample. The phase lasts, per client,
// until that client returns — a client that ran out of work is not counted
// as serving — and its length is the mean over the clients, in reference
// time.
func runClients(n int, traced bool, fn func(client int, s *sample, tr *trace)) *sample {
	samples := make([]*sample, n)
	traces := make([]*trace, n)
	finished := make([]int64, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		samples[c] = newSample(start)
		if traced {
			traces[c] = newTrace(start)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c, samples[c], traces[c])
			finished[c] = int64(time.Since(start))
		}(c)
	}
	wg.Wait()
	clocks := make([]*speedClock, n)
	for c, s := range samples {
		clocks[c] = &s.clock
	}
	ref := newRefTime(clocks, int64(time.Since(start)))
	out := newSample(start)
	var wall, elapsed float64
	for c, s := range samples {
		out.merge(s, ref)
		wall += float64(finished[c]) / float64(n)
		elapsed += ref.at(finished[c]) / float64(n)
	}
	out.elapsed = time.Duration(elapsed)
	out.speed = ratio(elapsed, wall)
	if traced {
		out.spans = mergeTraces(traces)
	}
	return out
}

// opsPerClient spaces the operation identifiers of concurrent clients, so
// the spans of one request share an identifier no other request has.
const opsPerClient = 1_000_000_000
