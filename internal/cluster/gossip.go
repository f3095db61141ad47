package cluster

// The anti-entropy loop between co-owners (DESIGN.md §5): each replica
// runs a Gossip agent that periodically exchanges /v1/sync digests with
// its peers and merges the difference, so canonical-instance
// registrations and PATCHed drift state spread to every owner without a
// coordinator, and a restarted or newly joined owner streams the store
// entries it missed instead of cold-solving them.
//
// One exchange with one peer is push-pull in at most two round trips:
//
//  1. POST the local digest (hashes + cache keys). The peer imports
//     nothing yet, answers with the items the digest lacks (bounded) and
//     a "want" list of what the peer itself is missing.
//  2. Import the answered items; if the peer wanted anything, POST a
//     second exchange carrying those items (plus the digest again, so the
//     peer neither re-requests nor echoes them).
//
// Determinism makes the merge conflict-free — a hash names one instance,
// a key one solution — so convergence needs no versioning: after one
// completed round between two live replicas their registries and caches
// agree (the suites pin this). Transfers larger than the per-exchange
// bound spread across successive rounds.
//
// Failure discipline mirrors the router's forwarding path: one
// resilience.Breaker per peer, fed by exchange outcomes, gates each
// attempt — a dead peer costs nothing after its breaker opens, and the
// breaker's cooldown IS the backoff of the loop. Every import is
// verified by the service (hash recomputation, store-codec decode), so a
// faulty peer can waste a round but never corrupt local state.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/service"
)

// gossipTimeout bounds one exchange round trip.
const gossipTimeout = 10 * time.Second

// GossipConfig tunes a Gossip agent. Peers and Local are required.
type GossipConfig struct {
	// Peers are the co-replica base URLs to exchange with (this
	// replica's own URL excluded).
	Peers []string
	// Local is the replica's own service, the state being synchronized.
	Local *service.Server
	// Interval is the anti-entropy period (default 2s).
	Interval time.Duration
	// BreakerCooldown is the Open → HalfOpen delay of the per-peer
	// breakers (default 5s; they open after resilience.Threshold
	// failures). It doubles as the loop's backoff against a dead peer.
	BreakerCooldown time.Duration
	// Client performs the exchanges (default http.Client).
	Client *http.Client
	// Metrics receives the gossip families (default: a private
	// registry). cmd/filterd shares the service's registry.
	Metrics *metrics.Registry
	// Logger receives the agent's structured log lines. Nil discards.
	Logger *slog.Logger
}

// GossipStats is the snapshot of the agent's counters that the benchmark
// reads in process; the gossip families on /metrics carry every counter.
type GossipStats struct {
	// Imported totals items merged from exchange answers.
	Imported int64
}

// gossipPeer is one co-replica and its breaker.
type gossipPeer struct {
	url     string
	breaker *resilience.Breaker
}

// Gossip is the anti-entropy agent. Create with NewGossip, start its
// loop with Start, release with Close. RunOnce drives one deterministic
// round by hand (the suites and the smoke tests use it via the loop's
// first immediate pass).
type Gossip struct {
	cfg    GossipConfig
	peers  []*gossipPeer
	client *http.Client
	logger *slog.Logger

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	rounds    atomic.Int64
	exchanges atomic.Int64
	failures  atomic.Int64
	skipped   atomic.Int64
	imported  atomic.Int64
	pushed    atomic.Int64
}

// NewGossip validates the configuration and returns an idle agent —
// Start launches the loop, or call RunOnce directly.
func NewGossip(cfg GossipConfig) (*Gossip, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: gossip has no peers")
	}
	if cfg.Local == nil {
		return nil, fmt.Errorf("cluster: gossip has no local service")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	g := &Gossip{cfg: cfg, client: cfg.Client, logger: logger, stop: make(chan struct{})}
	for _, u := range cfg.Peers {
		peerURL := u
		g.peers = append(g.peers, &gossipPeer{
			url: u,
			breaker: resilience.NewBreaker(resilience.BreakerConfig{
				Cooldown: cfg.BreakerCooldown,
				OnTransition: func(from, to resilience.State) {
					level := slog.LevelInfo
					if to == resilience.Open {
						level = slog.LevelWarn
					}
					g.logger.Log(context.Background(), level,
						"gossip peer breaker transition",
						"peer", peerURL, "from", from.String(), "to", to.String())
				},
			}),
		})
	}
	g.initMetrics()
	return g, nil
}

// initMetrics registers the gossip families (names register once per
// registry — one agent per process per registry).
func (g *Gossip) initMetrics() {
	m := g.cfg.Metrics
	m.CounterFunc("filterd_gossip_rounds_total",
		"Completed anti-entropy passes over all gossip peers.",
		func() float64 { return float64(g.rounds.Load()) })
	m.CounterFunc("filterd_gossip_exchanges_total",
		"Successful peer sync round trips.",
		func() float64 { return float64(g.exchanges.Load()) })
	m.CounterFunc("filterd_gossip_failures_total",
		"Failed peer sync round trips.",
		func() float64 { return float64(g.failures.Load()) })
	m.CounterFunc("filterd_gossip_skipped_total",
		"Sync attempts rejected by an open peer breaker (backoff).",
		func() float64 { return float64(g.skipped.Load()) })
	m.CounterFunc("filterd_gossip_imported_total",
		"Items merged from peers' exchange answers.",
		func() float64 { return float64(g.imported.Load()) })
	m.CounterFunc("filterd_gossip_pushed_total",
		"Items pushed to peers on their want lists.",
		func() float64 { return float64(g.pushed.Load()) })
}

// Start launches the anti-entropy loop: an immediate first round, then
// one per Interval until Close.
func (g *Gossip) Start() {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.RunOnce(context.Background())
		ticker := time.NewTicker(g.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-ticker.C:
				g.RunOnce(context.Background())
			}
		}
	}()
}

// Close stops the loop and closes the idle keep-alive connections to the
// peers, whose read and write loops would otherwise outlive the agent.
// In-flight exchanges finish on their own timeout.
func (g *Gossip) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
	g.client.CloseIdleConnections()
}

// Stats snapshots the agent's counters.
func (g *Gossip) Stats() GossipStats {
	return GossipStats{Imported: g.imported.Load()}
}

// RunOnce executes one anti-entropy round: one push-pull exchange with
// every peer, sequentially (rounds are cheap; sequencing keeps the
// suites deterministic). Safe to call concurrently with the loop —
// imports are idempotent set unions.
func (g *Gossip) RunOnce(ctx context.Context) {
	for _, p := range g.peers {
		if !p.breaker.Allow() {
			g.skipped.Add(1)
			continue
		}
		if err := g.exchange(ctx, p); err != nil {
			p.breaker.Failure()
			g.failures.Add(1)
			g.logger.Info("gossip exchange failed", "peer", p.url, "err", err)
			continue
		}
		p.breaker.Success()
		g.exchanges.Add(1)
	}
	g.rounds.Add(1)
}

// exchange runs the (at most) two round trips of one peer sync.
func (g *Gossip) exchange(ctx context.Context, p *gossipPeer) error {
	local := g.cfg.Local
	digest := local.SyncDigest()
	resp, err := g.post(ctx, p, service.SyncRequest{Digest: digest})
	if err != nil {
		return err
	}
	g.importAnswer(p, resp)
	if len(resp.Want.Hashes) == 0 && len(resp.Want.Keys) == 0 {
		return nil
	}
	// The peer named what it misses: push it, with the refreshed digest
	// so the answer neither echoes these items back nor re-requests them.
	push := service.SyncRequest{
		Digest:    local.SyncDigest(),
		Instances: local.ExportInstances(resp.Want.Hashes),
		Entries:   local.ExportEntries(resp.Want.Keys),
	}
	if len(push.Instances) == 0 && len(push.Entries) == 0 {
		return nil
	}
	g.pushed.Add(int64(len(push.Instances) + len(push.Entries)))
	resp, err = g.post(ctx, p, push)
	if err != nil {
		return err
	}
	g.importAnswer(p, resp)
	return nil
}

// importAnswer merges the items a peer answered with.
func (g *Gossip) importAnswer(p *gossipPeer, resp *service.SyncResponse) {
	for _, si := range resp.Instances {
		if err := g.cfg.Local.ImportInstance(si); err != nil {
			g.logger.Warn("gossip import rejected", "peer", p.url, "err", err)
			continue
		}
		g.imported.Add(1)
	}
	for _, e := range resp.Entries {
		if err := g.cfg.Local.ImportEntry(e); err != nil {
			g.logger.Warn("gossip import rejected", "peer", p.url, "err", err)
			continue
		}
		g.imported.Add(1)
	}
}

// post performs one POST /v1/sync round trip.
func (g *Gossip) post(ctx context.Context, p *gossipPeer, req service.SyncRequest) (*service.SyncResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding sync request: %w", err)
	}
	ctx, cancel := context.WithTimeout(ctx, gossipTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+"/v1/sync", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := g.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hresp.Body, maxRespBytes+1))
	if err != nil {
		return nil, fmt.Errorf("cluster: reading sync response: %w", err)
	}
	if len(data) > maxRespBytes {
		return nil, fmt.Errorf("cluster: sync response exceeds %d bytes", maxRespBytes)
	}
	if hresp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s answered %d to sync", p.url, hresp.StatusCode)
	}
	out := new(service.SyncResponse)
	if err := json.Unmarshal(data, out); err != nil {
		return nil, fmt.Errorf("cluster: decoding sync response: %w", err)
	}
	return out, nil
}
