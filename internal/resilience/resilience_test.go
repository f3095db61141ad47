package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is an adjustable Now for breaker tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newTestBreaker(cooldown time.Duration) (*Breaker, *fakeClock) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	return NewBreaker(BreakerConfig{Cooldown: cooldown, Now: clock.now}), clock
}

// open fails b Threshold times in a row, which opens a Closed breaker.
func open(b *Breaker) {
	for i := 0; i < Threshold; i++ {
		b.Failure()
	}
}

func TestBreakerOpensAfterKConsecutiveFailures(t *testing.T) {
	b, _ := newTestBreaker(time.Minute)
	for i := 0; i < Threshold-1; i++ {
		b.Failure()
		if got := b.State(); got != Closed {
			t.Fatalf("after %d failures: state %v, want closed", i+1, got)
		}
		if !b.Allow() {
			t.Fatalf("closed breaker rejected after %d failures", i+1)
		}
	}
	b.Failure()
	if got := b.State(); got != Open {
		t.Fatalf("after %d failures: state %v, want open", Threshold, got)
	}
	if b.Allow() {
		t.Error("open breaker allowed a request before the cooldown")
	}
	if b.Opens() != 1 {
		t.Errorf("opens = %d, want 1", b.Opens())
	}
}

func TestBreakerSuccessResetsTheStreak(t *testing.T) {
	b, _ := newTestBreaker(time.Minute)
	for i := 0; i < Threshold-1; i++ {
		b.Failure()
	}
	b.Success()
	for i := 0; i < Threshold-1; i++ {
		b.Failure()
	}
	if got := b.State(); got != Closed {
		t.Fatalf("non-consecutive failures opened the breaker: %v", got)
	}
	b.Failure()
	if got := b.State(); got != Open {
		t.Fatalf("%d consecutive failures left state %v", Threshold, got)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b, clock := newTestBreaker(time.Minute)
	open(b)
	if b.Allow() {
		t.Fatal("open breaker allowed before cooldown")
	}
	clock.advance(time.Minute)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but the probe was rejected")
	}
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state %v, want half-open", got)
	}
	if b.Allow() {
		t.Error("second caller stole the half-open probe slot")
	}
	b.Success()
	if got := b.State(); got != Closed {
		t.Fatalf("probe success left state %v", got)
	}
	if !b.Allow() {
		t.Error("closed breaker rejected")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	b, clock := newTestBreaker(time.Minute)
	open(b)
	clock.advance(time.Minute)
	if !b.Allow() {
		t.Fatal("probe rejected")
	}
	b.Failure()
	if got := b.State(); got != Open {
		t.Fatalf("probe failure left state %v, want open", got)
	}
	if b.Allow() {
		t.Error("re-opened breaker allowed immediately")
	}
	if b.Opens() != 2 {
		t.Errorf("opens = %d, want 2", b.Opens())
	}
	// Failures while open refresh the cooldown (health probes keep a dead
	// peer's breaker open).
	clock.advance(50 * time.Second)
	b.Failure()
	clock.advance(30 * time.Second)
	if b.Allow() {
		t.Error("refreshed cooldown did not hold the breaker open")
	}
	clock.advance(31 * time.Second)
	if !b.Allow() {
		t.Error("cooldown after the refresh did not elapse")
	}
}

func TestBreakerConcurrentUse(t *testing.T) {
	b, _ := newTestBreaker(time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if b.Allow() {
					if j%3 == 0 {
						b.Failure()
					} else {
						b.Success()
					}
				}
				_ = b.State()
				_ = b.Opens()
			}
		}(i)
	}
	wg.Wait()
}

// TestBreakerHalfOpenProbeRace: two goroutines racing Allow on a
// breaker whose cooldown just elapsed must admit EXACTLY one — the
// half-open probe slot is single-occupancy under contention, not just
// sequentially. Run with -race; the assertion holds for any number of
// racers.
func TestBreakerHalfOpenProbeRace(t *testing.T) {
	for round := 0; round < 100; round++ {
		b, clock := newTestBreaker(time.Minute)
		open(b)
		clock.advance(time.Minute)

		const racers = 8
		var start, done sync.WaitGroup
		admitted := make(chan bool, racers)
		start.Add(1)
		done.Add(racers)
		for i := 0; i < racers; i++ {
			go func() {
				defer done.Done()
				start.Wait() // maximize the collision window
				admitted <- b.Allow()
			}()
		}
		start.Done()
		done.Wait()
		close(admitted)

		n := 0
		for ok := range admitted {
			if ok {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("round %d: %d racers took the half-open probe slot, want exactly 1", round, n)
		}
		if got := b.State(); got != HalfOpen {
			t.Fatalf("round %d: state %v, want half-open", round, got)
		}
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), 3, Backoff{Base: time.Microsecond}, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err %v after %d calls", err, calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	wantErr := errors.New("still down")
	err := Retry(context.Background(), 3, Backoff{Base: time.Microsecond}, func() error {
		calls++
		return fmt.Errorf("attempt %d: %w", calls, wantErr)
	})
	if calls != 3 || !errors.Is(err, wantErr) {
		t.Fatalf("calls %d err %v", calls, err)
	}
}

func TestRetryStopsOnPermanent(t *testing.T) {
	calls := 0
	inner := errors.New("bad request")
	err := Retry(context.Background(), 5, Backoff{Base: time.Microsecond}, func() error {
		calls++
		return Permanent(inner)
	})
	if calls != 1 {
		t.Fatalf("permanent error retried %d times", calls)
	}
	// The marker is stripped: callers see the underlying error.
	var p *permanentError
	if !errors.Is(err, inner) || errors.As(err, &p) {
		t.Fatalf("err %v (still marked permanent: %v)", err, p != nil)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Retry(ctx, 10, Backoff{Base: time.Hour}, func() error {
		calls++
		cancel() // die while backing off
		return errors.New("transient")
	})
	if calls != 1 {
		t.Fatalf("%d calls after cancellation", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
}

// TestBackoffLadder: the delay doubles from Base per attempt, stops at
// Max, and the jitter adds strictly less than one Base.
func TestBackoffLadder(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second}
	for attempt, want := range []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 2 * time.Second, 2 * time.Second,
	} {
		if got := b.Delay(attempt); got < want || got >= want+b.Base {
			t.Errorf("Delay(%d) = %v, want [%v, %v)", attempt, got, want, want+b.Base)
		}
	}
	if got := b.Delay(1 << 20); got < b.Max || got >= b.Max+b.Base {
		t.Errorf("Delay far past the cap = %v, want [%v, %v)", got, b.Max, b.Max+b.Base)
	}
	uncapped := Backoff{Base: time.Millisecond}
	if got := uncapped.Delay(10); got < 1024*time.Millisecond || got >= 1025*time.Millisecond {
		t.Errorf("uncapped Delay(10) = %v, want [1.024s, 1.025s)", got)
	}
}
