package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of the traced pass: a call the benchmark made
// into a layer, or a phase a layer reported about itself (solve.Effort).
// Times are nanoseconds since the trace epoch; Parent indexes the span that
// caused this one (-1 for a root); spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// trace collects the spans of one client goroutine in memory. Each client
// owns its trace, so recording takes no lock; mergeTraces joins them when
// the pass ends.
type trace struct {
	epoch time.Time
	spans []span
}

func newTrace(epoch time.Time) *trace { return &trace{epoch: epoch} }

func (t *trace) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index; end closes it.
func (t *trace) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *trace) end(id int) { t.spans[id].End = t.now() }

// timed records fn as a child span of parent.
func (t *trace) timed(name string, parent, op int, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
}

// add records a span whose interval a layer reported (nanoseconds relative
// to the epoch), e.g. the queue/solve/orchestrate phases of solve.Effort.
func (t *trace) add(name string, parent, op int, start, end int64) int {
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// mergeTraces concatenates per-client traces, re-basing parent indices.
func mergeTraces(ts []*trace) []span {
	var out []span
	for _, t := range ts {
		base := len(out)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (children are clipped to the parent and
// overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(children[i], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	edge := lo
	for _, x := range iv {
		start, end := max(x[0], edge), min(x[1], hi)
		if end > start {
			total += end - start
			edge = end
		}
	}
	return total
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Count   int
	TotalNs int64
	SelfNs  int64
	durs    []float64 // per-span durations in ns, for medians
}

// byLayer reduces a span list to per-name totals and self times.
func byLayer(spans []span) map[string]*layerTime {
	self := selfTimes(spans)
	out := make(map[string]*layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.Count++
		lt.TotalNs += s.End - s.Start
		lt.SelfNs += self[i]
		lt.durs = append(lt.durs, float64(s.End-s.Start))
	}
	return out
}

// medianNs is the median span duration of a layer in ns (0 when absent).
func medianNs(layers map[string]*layerTime, name string) float64 {
	if lt := layers[name]; lt != nil {
		return median(lt.durs)
	}
	return 0
}

// traceFile is the on-disk form of one workload's traced pass.
type traceFile struct {
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Layers   map[string]*layerTime `json:"layers"`
	Spans    []span                `json:"spans"`
}

// writeTrace writes the spans of one workload, and their reduction to
// layers, as JSON into dir.
func writeTrace(dir, workload string, seed int64, spans []span, layers map[string]*layerTime) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.seed%d.trace.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(traceFile{Workload: workload, Seed: seed, Layers: layers, Spans: spans})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
