package plancache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHitMiss(t *testing.T) {
	c := New[int](4)
	calls := 0
	solve := func() (int, error) { calls++; return 42, nil }

	v, out, err := c.Do("k", solve)
	if v != 42 || out != Miss || err != nil {
		t.Fatalf("first Do = %d, %s, %v", v, out, err)
	}
	v, out, err = c.Do("k", solve)
	if v != 42 || out != Hit || err != nil {
		t.Fatalf("second Do = %d, %s, %v", v, out, err)
	}
	if calls != 1 {
		t.Fatalf("solve ran %d times", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Coalesced != 0 || st.Len != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSingleflight holds one solve open while many goroutines request the
// same key: exactly one solve must run, everyone gets its value.
func TestSingleflight(t *testing.T) {
	c := New[int](4)
	var solves atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	const waiters = 16
	var wg sync.WaitGroup
	results := make([]int, waiters+1)
	outcomes := make([]Outcome, waiters+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		v, out, err := c.Do("k", func() (int, error) {
			solves.Add(1)
			close(started)
			<-release
			return 7, nil
		})
		if err != nil {
			t.Error(err)
		}
		results[0], outcomes[0] = v, out
	}()
	<-started
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := c.Do("k", func() (int, error) {
				solves.Add(1)
				return -1, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], outcomes[i] = v, out
		}(i)
	}
	// Release the held solve only once every waiter has provably entered
	// Do (each increments Coalesced before blocking; none can finish while
	// the solve is held), so the coalescing below is deterministic.
	for deadline := time.Now().Add(10 * time.Second); c.Stats().Coalesced < waiters; {
		if time.Now().After(deadline) {
			t.Fatal("waiters never coalesced onto the in-flight solve")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := solves.Load(); n != 1 {
		t.Fatalf("%d solves for one key", n)
	}
	coalesced := 0
	for i, v := range results {
		if v != 7 {
			t.Fatalf("caller %d got %d", i, v)
		}
		if outcomes[i] == Coalesced {
			coalesced++
		}
	}
	if outcomes[0] != Miss {
		t.Fatalf("initiator outcome = %s", outcomes[0])
	}
	if st := c.Stats(); st.Coalesced != int64(coalesced) || coalesced != waiters {
		t.Fatalf("coalesced = %d, stats = %+v", coalesced, st)
	}
}

// TestErrorsAreNotCached: a failing solve reports the error and leaves no
// entry, so the next Do retries.
func TestErrorsAreNotCached(t *testing.T) {
	c := New[int](4)
	boom := errors.New("boom")
	_, out, err := c.Do("k", func() (int, error) { return 0, boom })
	if out != Miss || !errors.Is(err, boom) {
		t.Fatalf("Do = %s, %v", out, err)
	}
	v, out, err := c.Do("k", func() (int, error) { return 9, nil })
	if v != 9 || out != Miss || err != nil {
		t.Fatalf("retry Do = %d, %s, %v", v, out, err)
	}
	if st := c.Stats(); st.Len != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLRUEviction fills past capacity and checks the least-recently-used
// entries fall out first, respecting Get/Do recency refreshes.
func TestLRUEviction(t *testing.T) {
	c := New[int](3)
	for i := 0; i < 3; i++ {
		c.Do(fmt.Sprintf("k%d", i), func() (int, error) { return i, nil })
	}
	// Refresh k0, then insert k3: k1 is now the LRU and must be evicted.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.Do("k3", func() (int, error) { return 3, nil })

	if _, ok := c.Get("k1"); ok {
		t.Error("k1 survived past capacity")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted unexpectedly", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Len != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestConcurrentMixedKeys hammers the cache with identical and distinct
// keys from many goroutines (run under -race): per-key solve counts must
// stay at one and every caller must see its key's value.
func TestConcurrentMixedKeys(t *testing.T) {
	const keys = 8
	const callersPerKey = 8
	c := New[int](keys)
	var solves [keys]atomic.Int64

	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		for g := 0; g < callersPerKey; g++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				v, _, err := c.Do(fmt.Sprintf("k%d", k), func() (int, error) {
					solves[k].Add(1)
					return 100 + k, nil
				})
				if err != nil || v != 100+k {
					t.Errorf("key %d: got %d, %v", k, v, err)
				}
			}(k)
		}
	}
	wg.Wait()

	for k := range solves {
		if n := solves[k].Load(); n != 1 {
			t.Errorf("key %d solved %d times", k, n)
		}
	}
	st := c.Stats()
	if st.Misses != keys || st.Hits+st.Coalesced != int64(keys*(callersPerKey-1)) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMinimumCapacity(t *testing.T) {
	c := New[int](0)
	c.Do("a", func() (int, error) { return 1, nil })
	c.Do("b", func() (int, error) { return 2, nil })
	if st := c.Stats(); st.Len != 1 || st.Cap != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSeed: warm-loaded entries serve as hits without a solve, never
// replace existing entries, don't disturb the hit/miss counters at seed
// time, and respect the capacity bound.
func TestSeed(t *testing.T) {
	c := New[int](2)
	if !c.Seed("a", 1) {
		t.Fatal("seeding a fresh key failed")
	}
	if c.Seed("a", 99) {
		t.Fatal("re-seeding an existing key succeeded")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Len != 1 {
		t.Fatalf("stats after seed = %+v", st)
	}
	v, out, err := c.Do("a", func() (int, error) { t.Fatal("solved a seeded key"); return 0, nil })
	if v != 1 || out != Hit || err != nil {
		t.Fatalf("Do on seeded key = %d, %s, %v", v, out, err)
	}
	// Capacity still bounds seeded entries: after seeding "b" and "c",
	// "a" is the least recently used and falls out.
	c.Seed("b", 2)
	c.Seed("c", 3)
	if _, ok := c.Get("a"); ok {
		t.Error("LRU entry survived past capacity")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted unexpectedly", k)
		}
	}
	if st := c.Stats(); st.Len != 2 || st.Evictions != 1 {
		t.Errorf("stats after overflow = %+v", st)
	}
}

func TestSeedCountsSeeded(t *testing.T) {
	c := New[int](4)
	c.Seed("a", 1)
	c.Seed("b", 2)
	c.Seed("a", 9) // duplicate: rejected, not counted
	if st := c.Stats(); st.Seeded != 2 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("stats after seeding = %+v, want Seeded 2 and untouched hit/miss", st)
	}
}
