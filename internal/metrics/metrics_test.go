package metrics

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("scrape status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestCounterGaugeText(t *testing.T) {
	r := New()
	c := r.CounterVec("test_requests_total", "Requests.").With()
	g := r.GaugeVec("test_depth", "Depth.").With()
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	g.Set(2.5)

	out := scrape(t, r)
	for _, want := range []string{
		"# HELP test_requests_total Requests.\n",
		"# TYPE test_requests_total counter\n",
		"test_requests_total 5\n",
		"# TYPE test_depth gauge\n",
		"test_depth 2.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Families render sorted by name: depth before requests_total.
	if strings.Index(out, "test_depth") > strings.Index(out, "test_requests_total") {
		t.Errorf("families not sorted:\n%s", out)
	}
}

func TestVecChildrenSortedAndEscaped(t *testing.T) {
	r := New()
	v := r.CounterVec("test_forwards_total", "Forwards.", "peer", "code")
	v.With("http://b:1", "200").Inc()
	v.With("http://b:1", "200").Inc()
	v.With("http://a:1", "200").Inc()
	v.With(`weird"\`+"\n", "500").Inc()

	out := scrape(t, r)
	a := strings.Index(out, `test_forwards_total{peer="http://a:1",code="200"} 1`)
	b := strings.Index(out, `test_forwards_total{peer="http://b:1",code="200"} 2`)
	e := strings.Index(out, `test_forwards_total{peer="weird\"\\\n",code="500"} 1`)
	if a < 0 || b < 0 || e < 0 {
		t.Fatalf("missing series (a=%d b=%d escaped=%d):\n%s", a, b, e, out)
	}
	if !(a < b) {
		t.Errorf("children not sorted by label values:\n%s", out)
	}
	// Same child handle on repeat With.
	if v.With("http://a:1", "200") != v.With("http://a:1", "200") {
		t.Error("With returned distinct children for one label set")
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := New()
	h := r.Histogram("test_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := scrape(t, r)
	for _, want := range []string{
		`test_seconds_bucket{le="0.1"} 1`,
		`test_seconds_bucket{le="1"} 3`,
		`test_seconds_bucket{le="10"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		`test_seconds_sum 56.05`,
		`test_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if n := h.count.Load(); n != 5 {
		t.Errorf("count = %d", n)
	}
}

func TestFuncsAndScrapeHooks(t *testing.T) {
	r := New()
	depth := 7.0
	r.GaugeFunc("test_queue_depth", "Depth.", func() float64 { return depth })
	r.CounterFunc("test_sheds_total", "Sheds.", func() float64 { return 3 })
	state := r.GaugeVec("test_breaker_state", "State.", "peer")
	r.OnScrape(func() { state.With("p1").Set(2) })

	out := scrape(t, r)
	for _, want := range []string{
		"test_queue_depth 7\n",
		"test_sheds_total 3\n",
		`test_breaker_state{peer="p1"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	depth = 9
	if out = scrape(t, r); !strings.Contains(out, "test_queue_depth 9\n") {
		t.Errorf("gauge func not re-read at scrape:\n%s", out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := New()
	r.CounterVec("test_dup", "One.")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.GaugeVec("test_dup", "Two.")
}

// TestConcurrentInstrumentAndScrape runs instruments against scrapes under
// the race detector.
func TestConcurrentInstrumentAndScrape(t *testing.T) {
	r := New()
	c := r.CounterVec("test_total", "Total.").With()
	h := r.Histogram("test_lat", "Latency.", nil)
	v := r.CounterVec("test_vec", "Vec.", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Inc()
				h.Observe(float64(j) / 100)
				v.With([]string{"a", "b", "c"}[j%3]).Inc()
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			_ = scrape(t, r)
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8*500 {
		t.Errorf("counter %d after concurrent increments", c.Value())
	}
	out := scrape(t, r)
	if !strings.Contains(out, "test_lat_count 4000") {
		t.Errorf("histogram lost observations:\n%s", out)
	}
}
