package exec

// The compiled data plane. Adopting a plan (the initial one and every hot
// swap) compiles it once into a stage program: the services in
// topological order, each with its predecessors as stage indices, the
// tuple-independent half of its verdict hash, its truth threshold and its
// estimator resolved — so the tuple loop touches no map, no string and no
// allocator. A round then runs 64 tuples at a time on one kernel
// (stage.eval): a stage's alive word is the AND of its predecessors'
// words, verdicts are evaluated on the set bits only, and the counters
// advance by popcounts. The serial driver runs the kernel over the stages
// in order; the pipelined driver runs the same kernel on one goroutine
// per stage, wired by channels of alive words along the graph's edges.
//
// Determinism survives the batching because nothing in a round depends on
// evaluation order: a verdict is a pure function of (seed, name, tuple),
// the counts are sums of popcounts, each estimator is folded once per
// round by the run loop, and the controller only ever looks at round
// boundaries.

import (
	"math/bits"
	"sort"
	"sync"

	"repro/internal/sim"
)

// wordBits is the number of tuples one alive word carries.
const wordBits = 64

// stage is one service of the compiled plan.
type stage struct {
	name  string
	v     int   // the service's index in the plan's App
	preds []int // stage indices of the graph predecessors

	base      uint64 // sim.NameHash(seed, name)
	threshold uint64 // truth: sim.Threshold of the true pass fraction
	est       *estimator

	in, out uint64 // this round's evaluated / passed counts, folded at its end

	// Pipelined network only: a word per predecessor edge in, a word per
	// successor edge (or, for an exit service, to the driver) out, and the
	// rounds to run.
	recv   []<-chan uint64
	send   []chan<- uint64
	rounds chan round
}

// round is the tuple range [first, first+n) of one execution round.
type round struct{ first, n uint64 }

// program is one adopted plan compiled for the tuple loop.
type program struct {
	stages []stage // topological order
	sinks  []int   // stages with no successor: a tuple alive at all of them is emitted
	byName []int   // stage indices in service-name order (the controller's order)
	pred   Predicate
	words  []uint64 // serial driver: the alive word after each stage

	// Pipelined network (exits is nil for a serial program).
	exits   []<-chan uint64 // one per sink, drained by the driver
	running sync.WaitGroup  // stages still inside the current round
	served  sync.WaitGroup  // stage goroutines alive
	stopped sync.Once
}

// compile builds the stage program of p. With Workers > 1 it also wires
// and starts the stage network, which lives until program.stop.
func (e *Executor) compile(p Plan) *program {
	app, g, topo := p.App, p.Graph.Graph(), p.Graph.Topo()
	prog := &program{
		stages: make([]stage, len(topo)),
		byName: make([]int, len(topo)),
		pred:   e.cfg.Predicate,
		words:  make([]uint64, len(topo)),
	}
	at := make([]int, app.N()) // service index → stage index
	for k, v := range topo {
		at[v] = k
		name := app.Name(v)
		st := &prog.stages[k]
		*st = stage{
			name:      name,
			v:         v,
			base:      sim.NameHash(e.cfg.Seed, name),
			threshold: e.truthThreshold[name],
			est:       e.estimatorFor(name),
		}
		for _, u := range g.Pred(v) {
			st.preds = append(st.preds, at[u])
		}
		if g.OutDegree(v) == 0 {
			prog.sinks = append(prog.sinks, k)
		}
		prog.byName[k] = k
	}
	sort.Slice(prog.byName, func(i, j int) bool {
		return prog.stages[prog.byName[i]].name < prog.stages[prog.byName[j]].name
	})
	if e.cfg.Workers > 1 {
		prog.start((e.cfg.Window + wordBits - 1) / wordBits)
	}
	return prog
}

// eval is the kernel: the stage's verdicts on the alive tuples of the
// word whose bit i is tuple first+i. It returns the passed subset and
// advances the round's counts.
func (st *stage) eval(pred Predicate, first, alive uint64) uint64 {
	pass := alive
	switch {
	case pred != nil:
		pass = 0
		for w := alive; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			if pred(st.name, first+uint64(i)) {
				pass |= 1 << i
			}
		}
	case st.threshold != ^uint64(0): // sim.Verdict: threshold max always passes
		pass = 0
		for w := alive; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			// The borrow of hash − threshold is the verdict hash < threshold.
			_, below := bits.Sub64(sim.Finalise(st.base, first+uint64(i)), st.threshold, 0)
			pass |= below << i
		}
	}
	st.in += uint64(bits.OnesCount64(alive))
	st.out += uint64(bits.OnesCount64(pass))
	return pass
}

// wordMask is the alive word of a round's next word when rest tuples
// remain: all of them, at most 64.
func wordMask(rest uint64) uint64 {
	if rest >= wordBits {
		return ^uint64(0)
	}
	return 1<<rest - 1
}

// run pushes one round through the program, folds the round's counts into
// the estimators and returns how many tuples were emitted.
func (p *program) run(r round) (emitted uint64) {
	if len(p.stages) == 0 {
		return 0 // nothing to be alive at: the AND over no exits must not emit
	}
	if p.exits == nil {
		emitted = p.runSerial(r)
	} else {
		emitted = p.runPipelined(r)
	}
	for k := range p.stages {
		st := &p.stages[k]
		st.est.fold(st.in, st.out)
		st.in, st.out = 0, 0
	}
	return emitted
}

// runSerial is the one-goroutine driver: each word walks the stages in
// topological order.
func (p *program) runSerial(r round) (emitted uint64) {
	for w := uint64(0); w < r.n; w += wordBits {
		mask := wordMask(r.n - w)
		for k := range p.stages {
			st := &p.stages[k]
			alive := mask
			for _, q := range st.preds {
				alive &= p.words[q]
			}
			p.words[k] = st.eval(p.pred, r.first+w, alive)
		}
		for _, k := range p.sinks {
			mask &= p.words[k]
		}
		emitted += uint64(bits.OnesCount64(mask))
	}
	return emitted
}

// start wires and starts the stage network: one goroutine per stage, one
// channel per graph edge plus one per exit service into the driver. Every
// stage consumes one word per input edge and produces one per output edge
// per 64 tuples, so the network is a uniform-rate Kahn process network
// over a DAG — deadlock-free — and every stage's counts are touched by
// exactly one goroutine. Channels hold a whole round (words words), so no
// send ever waits for its consumer.
func (p *program) start(words int) {
	edge := func(from int) <-chan uint64 {
		ch := make(chan uint64, words)
		p.stages[from].send = append(p.stages[from].send, ch)
		return ch
	}
	for k := range p.stages {
		st := &p.stages[k]
		st.rounds = make(chan round, 1)
		for _, q := range st.preds {
			st.recv = append(st.recv, edge(q))
		}
	}
	p.exits = make([]<-chan uint64, len(p.sinks))
	for i, k := range p.sinks {
		p.exits[i] = edge(k)
	}
	p.served.Add(len(p.stages))
	for k := range p.stages {
		go p.serve(&p.stages[k])
	}
}

// serve is one stage's goroutine: the kernel over every word of every
// round it is handed, until stop closes its rounds.
func (p *program) serve(st *stage) {
	defer p.served.Done()
	for r := range st.rounds {
		for w := uint64(0); w < r.n; w += wordBits {
			alive := wordMask(r.n - w)
			for _, ch := range st.recv {
				alive &= <-ch
			}
			pass := st.eval(p.pred, r.first+w, alive)
			for _, ch := range st.send {
				ch <- pass
			}
		}
		p.running.Done()
	}
}

// runPipelined is the stage-network driver: hand every stage the round,
// AND the exit services' words as they arrive, and wait until every stage
// has left the round (its counts are then visible to the caller).
func (p *program) runPipelined(r round) (emitted uint64) {
	p.running.Add(len(p.stages))
	for k := range p.stages {
		p.stages[k].rounds <- r
	}
	for w := uint64(0); w < r.n; w += wordBits {
		mask := wordMask(r.n - w)
		for _, ch := range p.exits {
			mask &= <-ch
		}
		emitted += uint64(bits.OnesCount64(mask))
	}
	p.running.Wait()
	return emitted
}

// stop ends the stage network, if any, and returns once every stage
// goroutine has exited. It is called between rounds only, when every
// stage is waiting for its next round; stopping twice is harmless.
func (p *program) stop() {
	p.stopped.Do(func() {
		if p.exits == nil {
			return
		}
		for k := range p.stages {
			close(p.stages[k].rounds)
		}
		p.served.Wait()
	})
}
