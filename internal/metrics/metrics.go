// Package metrics is the dependency-free observability registry of the
// planning service: counters, gauges and histograms rendered in the
// Prometheus text exposition format (version 0.0.4) at GET /metrics.
//
// filterd and the cluster router are the intended users (DESIGN.md §4),
// and /metrics is their one counters surface: request latency per route,
// solver wall time, cache and memo hit rates, queue depth, breaker state,
// per-peer forward/failover counts — every number the Go Stats snapshots
// report lives here, scrapeable by any Prometheus-compatible collector
// without adding a dependency to the module.
//
// Concurrency: instrument methods (Add, Inc, Set, Observe) are lock-free
// atomics, safe on request hot paths; registration and scraping take the
// registry lock. Output is deterministic: families sort by name, children
// by label values, so scrapes diff cleanly in tests and smoke scripts.
package metrics

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default histogram buckets, in seconds — the
// Prometheus convention, spanning sub-millisecond cache hits to
// multi-second exact solves.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// kind is the metric family type reported on the # TYPE line.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing integer value.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the value to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Set pins the value — for scrape hooks mirroring a counter tracked
// elsewhere (an atomic on a hot path, a breaker's transition count). The
// mirrored source must itself be monotone.
func (c *Counter) Set(n int64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into cumulative buckets and tracks their
// sum — request latencies, solver wall times.
type Histogram struct {
	upper   []float64      // ascending bucket upper bounds, +Inf implicit
	counts  []atomic.Int64 // one per upper bound
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.upper {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// child is one labeled series of a family.
type child struct {
	values []string // label values, aligned with family.labels
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // callback series (CounterFunc/GaugeFunc)
}

// family is one named metric with all its labeled children.
type family struct {
	name, help string
	kind       kind
	labels     []string
	buckets    []float64 // histogram families only

	mu       sync.Mutex
	children map[string]*child
}

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	ch, ok := f.children[key]
	if !ok {
		ch = &child{values: append([]string(nil), values...)}
		switch f.kind {
		case counterKind:
			ch.c = new(Counter)
		case gaugeKind:
			ch.g = new(Gauge)
		case histogramKind:
			ch.h = &Histogram{upper: f.buckets, counts: make([]atomic.Int64, len(f.buckets))}
		}
		f.children[key] = ch
	}
	return ch
}

// CounterVec is a counter family with labels; With resolves one series.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first
// use). The arity must match the registered label names.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).c }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.child(values).g }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).h }

// Registry holds metric families and renders them. Create with New.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*family
	hooks  []func()
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register creates a family, panicking on a duplicate name: two owners
// publishing under one name would interleave series unpredictably, and
// every call site registers once at construction, so a collision is a
// wiring bug worth failing loudly on.
func (r *Registry) register(name, help string, k kind, labels []string, buckets []float64) *family {
	if name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; ok {
		panic(fmt.Sprintf("metrics: %s already registered", name))
	}
	f := &family{
		name: name, help: help, kind: k,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]*child),
	}
	r.byName[name] = f
	return f
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, counterKind, nil, nil).child(nil).c
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, counterKind, labels, nil)}
}

// CounterFunc registers a counter whose value is read by fn at scrape
// time — for monotone counts already tracked on a hot path elsewhere.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, counterKind, nil, nil).child(nil).fn = fn
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, gaugeKind, nil, nil).child(nil).g
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, gaugeKind, labels, nil)}
}

// GaugeFunc registers a gauge whose value is read by fn at scrape time —
// queue depths, pool sizes, cache lengths.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, gaugeKind, nil, nil).child(nil).fn = fn
}

// Histogram registers an unlabeled histogram with the given ascending
// bucket upper bounds (nil: DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.register(name, help, histogramKind, nil, buckets).child(nil).h
}

// HistogramVec registers a labeled histogram family (nil: DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{r.register(name, help, histogramKind, labels, buckets)}
}

// OnScrape registers a hook run at the start of every scrape, before
// rendering — the place to refresh Set-mirrored values (per-peer breaker
// states, transition counts) that have no callback slot of their own.
func (r *Registry) OnScrape(hook func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, hook)
}

// escapeLabel escapes a label value per the text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// formatFloat renders a sample value (integers without exponent noise).
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {a="x",b="y"} for the series, with extra appended
// last (the histogram le label); empty for an unlabeled series.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

// WriteTo renders every family in the text exposition format.
func (r *Registry) WriteTo(w *strings.Builder) {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	fams := make([]*family, 0, len(r.byName))
	for _, f := range r.byName {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	for _, hook := range hooks {
		hook()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		f.mu.Lock()
		children := make([]*child, 0, len(f.children))
		for _, ch := range f.children {
			children = append(children, ch)
		}
		f.mu.Unlock()
		sort.Slice(children, func(i, j int) bool {
			return strings.Join(children[i].values, "\x00") < strings.Join(children[j].values, "\x00")
		})

		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, ch := range children {
			switch {
			case ch.fn != nil:
				fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, ch.values, "", ""), formatFloat(ch.fn()))
			case f.kind == counterKind:
				fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, ch.values, "", ""), ch.c.Value())
			case f.kind == gaugeKind:
				fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, ch.values, "", ""), formatFloat(ch.g.Value()))
			default:
				h := ch.h
				cum := int64(0)
				for i, ub := range h.upper {
					cum += h.counts[i].Load()
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
						labelString(f.labels, ch.values, "le", formatFloat(ub)), cum)
				}
				count := h.count.Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, ch.values, "le", "+Inf"), count)
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, ch.values, "", ""),
					formatFloat(math.Float64frombits(h.sumBits.Load())))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, ch.values, "", ""), count)
			}
		}
	}
}

// Handler serves the registry in the Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var b strings.Builder
		r.WriteTo(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, b.String())
	})
}
