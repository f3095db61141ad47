package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.NumCPU() {
		t.Errorf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-3); got != runtime.NumCPU() {
		t.Errorf("Workers(-3) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestRunCoversAllJobsOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		var hits [n]atomic.Int32
		Run(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestRunZeroJobs(t *testing.T) {
	Run(4, 0, func(int) { t.Fatal("job ran") })
}

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	fn := func(i int) int { return i * i }
	serial := Map(1, 300, fn)
	for _, workers := range []int{2, 3, 16} {
		got := Map(workers, 300, fn)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: index %d = %d, want %d", workers, i, got[i], serial[i])
			}
		}
	}
}

// TestPoolHammer drives many overlapping pools from concurrent goroutines so
// `go test -race` exercises the handout counter and the result slices under
// real contention.
func TestPoolHammer(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				n := 50 + g
				res := Map(4, n, func(i int) int { return i + g })
				for i, v := range res {
					if v != i+g {
						t.Errorf("goroutine %d: res[%d] = %d", g, i, v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
