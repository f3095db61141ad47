package main

import (
	"path/filepath"
	"testing"
	"time"
)

// TestSelfTimes reduces a hand-built span tree: self time is a span's
// duration minus the part of it its children cover, children clipped to the
// parent and overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "service.plan", Start: 10, End: 70, Parent: 0},
		{Name: "service.queue", Start: 10, End: 15, Parent: 1},
		{Name: "solve", Start: 15, End: 65, Parent: 1},
		{Name: "orchestrate", Start: 15, End: 45, Parent: 3},
		{Name: "canon", Start: 60, End: 90, Parent: 0},   // overlaps service.plan by 10
		{Name: "oplist", Start: 95, End: 120, Parent: 0}, // runs 20 past its parent
		{Name: "op", Start: 200, End: 230, Parent: -1},   // a second root, no children
	}
	want := []int64{
		100 - (80 + 5), // op: children cover [10,90] and [95,100]
		60 - (5 + 50),  // service.plan
		5,              // service.queue
		50 - 30,        // solve
		30,             // orchestrate
		30,             // canon
		25,             // oplist
		30,             // second op
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}

	layers := byLayer(spans)
	if op := layers["op"]; op.Count != 2 || op.TotalNs != 130 || op.SelfNs != 45 {
		t.Errorf("op layer = %+v, want count 2, total 130, self 45", *op)
	}
	if got := medianNs(layers, "solve"); got != 50 {
		t.Errorf("median solve span = %v, want 50", got)
	}
	if got := medianNs(layers, "absent"); got != 0 {
		t.Errorf("median of an absent layer = %v, want 0", got)
	}
}

// TestMergeTraces re-bases parent indices when per-client traces are joined.
func TestMergeTraces(t *testing.T) {
	a := &trace{spans: []span{{Name: "op", Parent: -1}, {Name: "x", Parent: 0}}}
	b := &trace{spans: []span{{Name: "op", Parent: -1}, {Name: "y", Parent: 0}}}
	merged := mergeTraces([]*trace{a, b})
	if len(merged) != 4 || merged[1].Parent != 0 || merged[2].Parent != -1 || merged[3].Parent != 2 {
		t.Errorf("merged parents = %v %v %v %v, want 0-based then 2-based", merged[0].Parent, merged[1].Parent, merged[2].Parent, merged[3].Parent)
	}
}

// TestTailPercentile pins the reporting rule: the highest percentile with
// at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {150000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// TestRefTime converts wall time to reference time slice by slice: the
// median probe of a slice sets its speed, a slice without a probe borrows
// its neighbour's.
func TestRefTime(t *testing.T) {
	slice := int64(refSlice)
	clocks := []*speedClock{
		{samples: []speedSample{{at: slice + 1, speed: 0.5}, {at: slice + 2, speed: 0.5}, {at: 3*slice + 5, speed: 2}}},
		{samples: []speedSample{{at: slice + 3, speed: 40}}}, // an outlier beside two agreeing probes
	}
	ref := newRefTime(clocks, 4*slice)
	// Slice 0 has no probe and takes slice 1's speed; slice 2 takes it too.
	for i, want := range []float64{0.5, 0.5, 0.5, 2} {
		if ref.speed[i] != want {
			t.Errorf("speed of slice %d = %v, want %v", i, ref.speed[i], want)
		}
	}
	if got, want := ref.at(3*slice), 1.5*float64(slice); got != want {
		t.Errorf("reference time at 3 slices = %v, want %v", got, want)
	}
	if got, want := ref.at(3*slice+slice/2)-ref.at(2*slice+slice/2), 0.25*float64(slice)+float64(slice); got != want {
		t.Errorf("reference time across a speed change = %v, want %v", got, want)
	}
	if got := newRefTime(nil, slice/2).at(slice / 4); got != float64(slice/4) {
		t.Errorf("without probes reference time = %v, want wall time %v", got, slice/4)
	}
}

// TestRefSeconds times a sleep: the probes run, and the answer is the wall
// time scaled by a plausible host speed.
func TestRefSeconds(t *testing.T) {
	got, err := refSeconds(func() error { time.Sleep(30 * time.Millisecond); return nil })
	if err != nil || got < 0.003 || got > 0.3 {
		t.Errorf("refSeconds(30 ms sleep) = %v, %v; want 0.03 s within a factor of ten", got, err)
	}
}

// TestManifest keeps BENCHMARK.json and the code in step: the same
// workloads and the same metrics with the same units, in the same order.
func TestManifest(t *testing.T) {
	mf, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if mf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, mf.Workloads[i].Name, w.name)
		}
	}
	if len(mf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(mf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := mf.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s [%s], code %s [%s]", i, got.Name, got.Unit, d.name, d.unit)
		}
		if b := mf.EndToEnd[i].Bound; b <= 0 || b > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.name, b)
		}
	}
	if len(mf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(mf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := mf.PerLayer[i]; got.Name != d.name || got.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], code %s [%s]", i, got.Name, got.Unit, d.name, d.unit)
		}
	}
}

// TestSmoke runs both passes of all five workloads for a fraction of a
// second with every answer check on. plan-cold normally plans whole passes
// over its grid, seconds each; here its grid is cut to the cells that cost
// milliseconds (the same instances, so the golden values still apply).
func TestSmoke(t *testing.T) {
	cfg := runConfig{seed: 1, seconds: 0.3, clients: 2, tmp: t.TempDir()}
	for _, w := range workloads {
		if w.name == "plan-cold" {
			w.setup = func(cfg runConfig) (env, error) {
				e, err := setupPlanCold(cfg)
				if err != nil {
					return nil, err
				}
				cold := e.(*coldEnv)
				cold.cells = nil
				for _, cell := range coldCells {
					if cell.n >= 8 && !cell.prec {
						cold.cells = append(cold.cells, cell)
					}
				}
				cold.first = coldPass(cfg.seed, 0, cold.cells)
				return cold, nil
			}
		}
		t.Run(w.name, func(t *testing.T) {
			r, err := runTraced(w, cfg, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if r.attempted == 0 || r.failed != 0 {
				t.Errorf("attempted %d, failed %d: %v", r.attempted, r.failed, r.notes)
			}
			for _, d := range perLayer {
				if _, ok := r.metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s not reported", d.name)
				}
			}
			if _, ok := r.metrics["trace.overhead_share"]; !ok || r.metrics["failed_share"] != 0 {
				t.Errorf("trace.overhead_share missing or failed_share %v != 0", r.metrics["failed_share"])
			}
		})
	}
}
