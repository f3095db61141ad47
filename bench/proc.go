package main

import (
	"runtime/metrics"
	"time"
)

// procUsage measures what the whole process (servers and clients alike)
// allocated and collected over one measured phase, from runtime/metrics —
// no stop-the-world reads while the clock runs.
type procUsage struct {
	before []metrics.Sample
	peak   chan uint64
	done   chan struct{}
}

const (
	mAllocObjects = "/gc/heap/allocs:objects"
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU     = "/cpu/classes/total:cpu-seconds"
	mHeapObjects  = "/memory/classes/heap/objects:bytes"
)

func readProc() []metrics.Sample {
	s := []metrics.Sample{{Name: mAllocObjects}, {Name: mAllocBytes}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return s
}

// startProcUsage snapshots the counters and starts sampling the live heap
// every 100 ms for its peak.
func startProcUsage() *procUsage {
	u := &procUsage{before: readProc(), peak: make(chan uint64, 1), done: make(chan struct{})}
	go func() {
		heap := []metrics.Sample{{Name: mHeapObjects}}
		var peak uint64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			peak = max(peak, heap[0].Value.Uint64())
			select {
			case <-tick.C:
			case <-u.done:
				u.peak <- peak
				return
			}
		}
	}()
	return u
}

// stop ends the sampling and reports the phase's usage per completed
// operation.
func (u *procUsage) stop(ops int, m map[string]float64) {
	close(u.done)
	peak := <-u.peak
	after := readProc()
	m["proc.allocs_per_op"] = ratio(float64(after[0].Value.Uint64()-u.before[0].Value.Uint64()), float64(ops))
	m["proc.bytes_per_op"] = ratio(float64(after[1].Value.Uint64()-u.before[1].Value.Uint64()), float64(ops))
	m["proc.gc_cpu_share"] = ratio(after[2].Value.Float64()-u.before[2].Value.Float64(), after[3].Value.Float64()-u.before[3].Value.Float64())
	m["proc.heap_peak_mb"] = float64(peak) / (1 << 20)
}
