package solve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/plan"
)

// probeCtx is a deterministic cancellation source: it reports itself done
// from the (allow+1)-th Err probe on, independent of wall clock, so the
// mid-search abort tests cannot flake on timing. Safe for concurrent
// probing (the parallel searches poll from every shard).
type probeCtx struct {
	context.Context
	allow  int64
	probes atomic.Int64
}

func newProbeCtx(allow int64) *probeCtx {
	return &probeCtx{Context: context.Background(), allow: allow}
}

func (p *probeCtx) Err() error {
	if p.probes.Add(1) > p.allow {
		return context.Canceled
	}
	return nil
}

// TestExpiredContextFailsEveryMethod: a context that is already done aborts
// every search method before any work, with the context error in the chain.
func TestExpiredContextFailsEveryMethod(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	app := gen.App(gen.NewRand(7), 5, gen.Mixed)
	for _, method := range []Method{Auto, GreedyChain, HillClimb, BranchBound} {
		for _, workers := range []int{1, 4} {
			_, err := MinPeriod(app, plan.Overlap, Options{Method: method, Workers: workers, Ctx: ctx})
			if err == nil {
				t.Errorf("method %v workers %d: expired context did not abort", method, workers)
				continue
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("method %v workers %d: error %v does not wrap context.Canceled", method, workers, err)
			}
		}
	}
}

// TestDeadlineExceededIsReported: deadline expiry surfaces as
// context.DeadlineExceeded, the error the service maps to its 499-style
// status.
func TestDeadlineExceededIsReported(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	app := gen.App(gen.NewRand(7), 5, gen.Mixed)
	_, err := MinPeriod(app, plan.Overlap, Options{Method: HillClimb, Ctx: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

// TestMidSearchCancellationStopsBranchBound cancels after a fixed number of
// context probes and checks both that the search aborts with the context
// error and that it expanded far less of the tree than the uncanceled run —
// i.e. cancellation actually stops the expansion loop, not just the final
// return. Both families probe in the driver's shards and, from six services
// up, in their seeding climbs.
func TestMidSearchCancellationStopsBranchBound(t *testing.T) {
	for _, tc := range []struct {
		family  Family
		n       int
		profile gen.Profile
		m       plan.Model
	}{{FamilyDAG, 5, gen.Filtering, plan.InOrder}, {FamilyForest, 7, gen.Filtering, plan.InOrder}} {
		t.Run(tc.family.String(), func(t *testing.T) {
			app := gen.App(gen.NewRand(3), tc.n, tc.profile)
			base := Options{Method: BranchBound, Family: tc.family, Workers: 1, Restarts: 1}

			var full Effort
			opts := base
			opts.Effort = &full
			if _, err := MinPeriod(app, tc.m, opts); err != nil {
				t.Fatal(err)
			}
			if full.Search.Expanded < 512 {
				t.Skipf("instance too easy to observe a mid-search abort (%d expansions)", full.Search.Expanded)
			}

			// One successful probe (the minimize entry check), done from
			// then on: the first in-loop probe of every climb and shard
			// latches the abort.
			var aborted Effort
			opts = base
			opts.Effort = &aborted
			opts.Ctx = newProbeCtx(1)
			_, err := MinPeriod(app, tc.m, opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-search cancel: got error %v", err)
			}
			if aborted.Search.Expanded*4 > full.Search.Expanded {
				t.Errorf("canceled run expanded %d of %d nodes — cancellation did not stop the search",
					aborted.Search.Expanded, full.Search.Expanded)
			}
		})
	}
}
