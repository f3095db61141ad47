package exec

// Online per-service estimators: the executor measures what the stream
// actually does — how many tuples each service consumed and passed, and
// how long each evaluation took — and distils that into empirical
// selectivity and cost estimates the drift controller compares against
// the declared instance.
//
// Two disciplines coexist. Selectivity is estimated exactly: emp = out/in
// as a rational, because the verdict substrate (internal/sim) is itself
// exact and the drift PATCH wants rationals. Cost keeps two views: the
// exact mean of the virtual per-tuple costs charged by the harness
// (deterministic, what the controller uses) and a float64 EWMA of the
// same samples (the observational smoother a real deployment would run).
// Both are cumulative over the run, behind a confidence gate: an estimator
// votes for drift only after MinSamples tuples. A selectivity estimate
// must also depart the declared value by more than driftSigmas standard
// errors of a pass fraction, so Bernoulli sampling noise on an undrifted
// service never PATCHes the control plane. A cost estimate is exact and
// needs no such test.

import (
	"repro/internal/rat"
)

// estimator accumulates the per-service stream measurements. It outlives
// the plans: a hot swap recompiles the stages, the estimators carry on.
type estimator struct {
	// cost is the virtual cost charged per evaluated tuple — the service's
	// true cost, fixed for the run — and costF its nearest float64.
	cost  rat.Rat
	costF float64

	in  uint64 // tuples evaluated (all predecessors passed)
	out uint64 // tuples passed

	costSum rat.Rat // Σ virtual per-tuple cost (exact)
	ewma    float64 // observational cost smoother
}

func newEstimator(cost rat.Rat) *estimator {
	return &estimator{cost: cost, costF: cost.Float64()}
}

// fold records one round's evaluations: in tuples evaluated, out of them
// passed, each charged the service's cost. The EWMA needs no per-sample
// loop: the first sample seeds it with the cost, and every later sample of
// the same cost moves it by α·(cost − ewma) = α·0, so any number of
// samples leaves it exactly on the cost.
func (e *estimator) fold(in, out uint64) {
	if in == 0 {
		return
	}
	e.in += in
	e.out += out
	e.costSum = e.costSum.Add(e.cost.MulInt(int64(in)))
	e.ewma = e.costF
}

// selectivity returns the empirical selectivity out/in, exact. ok is
// false before any tuple was evaluated.
func (e *estimator) selectivity() (rat.Rat, bool) {
	if e.in == 0 {
		return rat.Zero, false
	}
	return rat.New(int64(e.out), int64(e.in)), true
}

// meanCost returns the exact mean virtual cost per evaluated tuple. ok is
// false before any tuple was evaluated.
func (e *estimator) meanCost() (rat.Rat, bool) {
	if e.in == 0 {
		return rat.Zero, false
	}
	return e.costSum.Div(rat.I(int64(e.in))), true
}

// confident reports whether the estimator has seen enough tuples for the
// drift controller to act on it.
func (e *estimator) confident(minSamples uint64) bool {
	return e.in >= minSamples
}

// driftSigmas is how many standard errors a selectivity estimate must
// depart the declared selectivity by before it votes for drift.
const driftSigmas = 3

// significant reports whether the pass fraction emp, measured on in
// tuples, departs the declared selectivity sel by more than driftSigmas
// standard errors sqrt(sel·(1 − sel)/in): (emp − sel)²·in >
// driftSigmas²·sel·(1 − sel), exact.
func significant(emp, sel rat.Rat, in uint64) bool {
	d := emp.Sub(sel)
	return d.Mul(d).MulInt(int64(in)).Greater(sel.Mul(rat.One.Sub(sel)).MulInt(driftSigmas * driftSigmas))
}

// drifted reports whether emp departs decl by more than the relative
// threshold: |emp - decl| > threshold · decl. A zero declared value only
// counts as drifted when the empirical value is non-zero.
func drifted(emp, decl, threshold rat.Rat) bool {
	if decl.IsZero() {
		return !emp.IsZero()
	}
	diff := emp.Sub(decl)
	if diff.Sign() < 0 {
		diff = diff.Neg()
	}
	return diff.Greater(threshold.Mul(decl))
}
