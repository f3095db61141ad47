// Package sim provides a discrete-event execution substrate for plans: the
// experimental platform the paper lacks. It executes schedules
// operationally, independent of the analytical machinery, so that every
// period/latency claim can be confirmed by actually running the system on a
// stream of data sets.
//
// Two executors are provided:
//
//   - Replay executes a strictly periodic operation list for N data sets
//     and reports completions, per-data-set latency, and server
//     utilization.
//   - SelfTimedInOrder executes the INORDER semantics greedily (every
//     operation as soon as its rendezvous partners allow), with no
//     prescribed period; its steady-state throughput must converge to the
//     maximum cycle ratio of the corresponding event graph, which the tests
//     verify.
package sim

import (
	"fmt"

	"repro/internal/oplist"
	"repro/internal/orchestrate"
	"repro/internal/plan"
	"repro/internal/rat"
)

// Trace records the execution of nData consecutive data sets.
type Trace struct {
	// CalcEnd[n][v] is the completion of node v's computation on data set n.
	CalcEnd [][]rat.Rat
	// CommEnd[n][e] is the completion of communication e for data set n.
	CommEnd [][]rat.Rat
	// Start[n] is the begin time of the first operation of data set n.
	Start []rat.Rat
	// Done[n] is the completion time of data set n (its last communication).
	Done []rat.Rat
}

// N returns the number of data sets traced.
func (t *Trace) N() int { return len(t.Done) }

// Latency returns Done[n] − Start[n], the response time of data set n.
func (t *Trace) Latency(n int) rat.Rat { return t.Done[n].Sub(t.Start[n]) }

// Gap returns Done[n] − Done[n−1], the inter-completion time at n ≥ 1.
func (t *Trace) Gap(n int) rat.Rat { return t.Done[n].Sub(t.Done[n-1]) }

// SteadyPeriod averages the inter-completion gaps over the last window data
// sets: in the periodic regime of a self-timed execution this equals the
// maximum cycle ratio exactly (the regime may be K-periodic, so a window
// that is a multiple of K averages to the ratio).
func (t *Trace) SteadyPeriod(window int) (rat.Rat, error) {
	n := t.N()
	if window < 1 || window >= n {
		return rat.Zero, fmt.Errorf("sim: window %d out of range (have %d data sets)", window, n)
	}
	total := t.Done[n-1].Sub(t.Done[n-1-window])
	return total.Div(rat.I(int64(window))), nil
}

// ConvergedTo reports whether the execution has reached a K-periodic
// regime with the given per-data-set period for some K ≤ maxK: the last
// K-step completion difference equals exactly K·period. Self-timed
// executions of event graphs converge to such regimes, but K (the
// cyclicity of the critical subgraph) is instance-dependent, so a fixed
// averaging window can straddle a partial cycle.
func (t *Trace) ConvergedTo(period rat.Rat, maxK int) bool {
	n := t.N()
	for k := 1; k <= maxK && k < n; k++ {
		if t.Done[n-1].Sub(t.Done[n-1-k]).Equal(period.MulInt(int64(k))) {
			return true
		}
	}
	return false
}

// Replay executes a validated operation list for nData data sets: data set
// n runs at the list's times shifted by n·λ. The resulting trace is exact
// by construction; Replay exists so experiments can report operational
// numbers (completions, latencies, utilizations) rather than analytical
// ones.
func Replay(l *oplist.List, nData int) (*Trace, error) {
	if nData < 1 {
		return nil, fmt.Errorf("sim: need at least one data set")
	}
	w := l.Plan()
	tr := &Trace{
		CalcEnd: make([][]rat.Rat, nData),
		CommEnd: make([][]rat.Rat, nData),
		Start:   make([]rat.Rat, nData),
		Done:    make([]rat.Rat, nData),
	}
	for n := 0; n < nData; n++ {
		shift := l.Lambda().MulInt(int64(n))
		tr.CalcEnd[n] = make([]rat.Rat, w.N())
		for v := 0; v < w.N(); v++ {
			tr.CalcEnd[n][v] = l.CalcEnd(v).Add(shift)
		}
		tr.CommEnd[n] = make([]rat.Rat, len(w.Edges()))
		start := rat.Zero
		startSet := false
		done := rat.Zero
		for ei := range w.Edges() {
			tr.CommEnd[n][ei] = l.CommEnd(ei).Add(shift)
			b := l.CommBegin(ei).Add(shift)
			if !startSet || b.Less(start) {
				start, startSet = b, true
			}
			done = rat.Max(done, tr.CommEnd[n][ei])
		}
		for v := 0; v < w.N(); v++ {
			b := l.CalcBegin(v).Add(shift)
			if b.Less(start) {
				start = b
			}
		}
		tr.Start[n] = start
		tr.Done[n] = done
	}
	return tr, nil
}

// SelfTimedInOrder executes the INORDER semantics greedily for nData data
// sets with the given per-server receive/send orders: every operation
// starts as soon as (a) the previous operation of its server for the same
// data set has finished, (b) the server's last operation for the previous
// data set has finished (in-order constraint), and (c) for communications,
// both endpoint servers have reached it (synchronous rendezvous). No period
// is prescribed; throughput emerges from the synchronization alone.
func SelfTimedInOrder(w *plan.Weighted, orders orchestrate.Orders, nData int) (*Trace, error) {
	if nData < 1 {
		return nil, fmt.Errorf("sim: need at least one data set")
	}
	nOps := w.N() + len(w.Edges())
	calcID := func(v int) int { return v }
	commID := func(e int) int { return w.N() + e }
	dur := make([]rat.Rat, nOps)
	for v := 0; v < w.N(); v++ {
		dur[calcID(v)] = w.Comp(v)
	}
	for e := range w.Edges() {
		dur[commID(e)] = w.Vol(e)
	}

	// Per-op lists of same-data-set predecessors and of wrap predecessors
	// (the last op of each server sequence containing the op).
	samePred := make([][]int, nOps)
	wrapPred := make([][]int, nOps)
	for v := 0; v < w.N(); v++ {
		seq := make([]int, 0, len(orders.In[v])+1+len(orders.Out[v]))
		for _, e := range orders.In[v] {
			seq = append(seq, commID(e))
		}
		seq = append(seq, calcID(v))
		for _, e := range orders.Out[v] {
			seq = append(seq, commID(e))
		}
		for i := 1; i < len(seq); i++ {
			samePred[seq[i]] = append(samePred[seq[i]], seq[i-1])
		}
		wrapPred[seq[0]] = append(wrapPred[seq[0]], seq[len(seq)-1])
	}

	// Evaluation order within one data set: topological on samePred.
	topo, err := topoOrder(nOps, samePred)
	if err != nil {
		return nil, fmt.Errorf("sim: orders deadlock: %w", err)
	}

	end := make([][]rat.Rat, nData) // end[n][op]
	tr := &Trace{
		CalcEnd: make([][]rat.Rat, nData),
		CommEnd: make([][]rat.Rat, nData),
		Start:   make([]rat.Rat, nData),
		Done:    make([]rat.Rat, nData),
	}
	for n := 0; n < nData; n++ {
		end[n] = make([]rat.Rat, nOps)
		startSet := false
		for _, op := range topo {
			begin := rat.Zero
			for _, p := range samePred[op] {
				begin = rat.Max(begin, end[n][p])
			}
			if n > 0 {
				for _, p := range wrapPred[op] {
					begin = rat.Max(begin, end[n-1][p])
				}
			}
			end[n][op] = begin.Add(dur[op])
			if !startSet || begin.Less(tr.Start[n]) {
				tr.Start[n], startSet = begin, true
			}
		}
		tr.CalcEnd[n] = make([]rat.Rat, w.N())
		for v := 0; v < w.N(); v++ {
			tr.CalcEnd[n][v] = end[n][calcID(v)]
		}
		tr.CommEnd[n] = make([]rat.Rat, len(w.Edges()))
		done := rat.Zero
		for e := range w.Edges() {
			tr.CommEnd[n][e] = end[n][commID(e)]
			done = rat.Max(done, end[n][commID(e)])
		}
		tr.Done[n] = done
	}
	return tr, nil
}

func topoOrder(n int, preds [][]int) ([]int, error) {
	state := make([]int, n) // 0 white, 1 grey, 2 black
	order := make([]int, 0, n)
	var visit func(v int) error
	visit = func(v int) error {
		state[v] = 1
		for _, p := range preds[v] {
			switch state[p] {
			case 1:
				return fmt.Errorf("cycle through operation %d", v)
			case 0:
				if err := visit(p); err != nil {
					return err
				}
			}
		}
		state[v] = 2
		order = append(order, v)
		return nil
	}
	for v := 0; v < n; v++ {
		if state[v] == 0 {
			if err := visit(v); err != nil {
				return nil, err
			}
		}
	}
	return order, nil
}
