package main

import (
	"io"
	"net/http"
	"time"
)

// The hosts this benchmark runs on are a few virtual cores of a shared
// machine whose speed moves by a third and more within seconds (the same
// loop takes 80 to 200 ms, in stretches of one to sixty seconds). A run of
// fifteen seconds sees one mix of those stretches and its neighbour
// another, so wall-clock rates of identical code spread by 10 to 40 % from
// run to run — wider than any bound worth setting. The reference clock
// takes most of that out. Between operations, at most once per refEvery,
// every client times a probe: a fixed piece of work of the benchmark's own,
// shaped like the workload's operations but running none of the program's
// code. The time of the measured phase is then rescaled slice by slice by
// how fast the probe ran in that slice compared with its reference
// duration. A reported second is therefore a second of a host on which the
// probe takes its reference duration; the phase's mean speed against that
// host is reported as host.speed and the wall-clock rate as
// host.ops_per_s_wall. A change to the program cannot move a probe, so it
// shows in full.
//
// Two probes, chosen by measurement (10 s windows, same code, this host):
// against refKernel the in-process workloads' spread falls from 4-5 % to
// 1.5-2 % (standard deviation), against an HTTP round trip to refEcho
// serve-hit's falls from 9 % to 2 %. A division-bound arithmetic loop was
// tried first and is almost blind to the slow stretches; refKernel against
// the HTTP workloads leaves 6 %.
const (
	refEvery = 10 * time.Millisecond
	refSlice = 250 * time.Millisecond
	refIters = 1200
	// The probes' median durations on the reference host (Xeon 2.1 GHz,
	// 2 vCPU) in its common state. Constants: they only fix the scale of
	// the reported seconds.
	refKernelNs = 18_500
	refEchoNs   = 62_000
)

// probe is one reference operation and its duration on the reference host.
type probe struct {
	run   func()
	refNs float64
}

// refKernel is the probe of the in-process workloads: refIters updates of a
// 256-key map (cleared first) — hashing, probing and branching through the
// runtime's map code, the instruction mix of ordinary Go code. The map
// outlives the call, so the compiler cannot discard the work.
func refKernel(m map[uint64]uint64) {
	clear(m)
	x := uint64(2463534242)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x&255] += x
	}
}

// kernelProbe returns a refKernel probe with a map of its own.
func kernelProbe() probe {
	m := make(map[uint64]uint64, 256)
	return probe{run: func() { refKernel(m) }, refNs: refKernelNs}
}

// refEcho is the reference of the HTTP workloads: a loopback listener of
// the benchmark's own whose handler reads the request and answers a fixed
// body. A round trip to it crosses everything a planning request crosses —
// sockets, the netpoller, goroutine wake-ups, net/http on both sides — but
// for the planner.
type refEcho struct {
	ln        *listener
	req, resp []byte
}

// startEcho serves resp to every request; probes send req.
func startEcho(req, resp []byte) (*refEcho, error) {
	e := &refEcho{req: req, resp: resp}
	var err error
	e.ln, err = listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(e.resp)
	}))
	return e, err
}

func (e *refEcho) close() { e.ln.close() }

// probe returns a round-trip probe on the connection of hc, which the
// caller keeps for probing alone.
func (e *refEcho) probe(hc *httpClient) probe {
	return probe{run: func() { hc.do(http.MethodPost, e.ln.url, e.req) }, refNs: refEchoNs}
}

// speedSample is one timed probe: when (ns since the phase began) and the
// host's speed it shows (reference duration over measured duration).
type speedSample struct {
	at    int64
	speed float64
}

// speedClock is one client's calibration record.
type speedClock struct {
	probe   probe
	last    int64
	samples []speedSample
}

// tick times the probe if the client's last one is refEvery or more before
// now (ns since epoch, when the phase began).
func (c *speedClock) tick(epoch time.Time, now int64) {
	if len(c.samples) == 0 || now-c.last >= int64(refEvery) {
		c.sample(epoch)
	}
}

// sample times the probe.
func (c *speedClock) sample(epoch time.Time) {
	t0 := time.Now()
	c.probe.run()
	d := time.Since(t0)
	c.last = int64(t0.Sub(epoch))
	c.samples = append(c.samples, speedSample{at: c.last, speed: c.probe.refNs / float64(d)})
}

// refTime maps the wall time of a measured phase to reference time: within
// slice k the host runs at speed[k], and cum[k] is the reference time
// elapsed when the slice begins.
type refTime struct {
	speed []float64
	cum   []float64
}

// newRefTime reduces the clients' samples to a speed per slice: the median
// of the slice's samples (a probe the scheduler interrupted is an outlier,
// not a measurement). A slice without a sample takes its predecessor's
// speed, a leading one its successor's; with no sample at all the host is
// taken to be the reference host.
func newRefTime(clocks []*speedClock, length int64) *refTime {
	n := int(length/int64(refSlice)) + 1
	bins := make([][]float64, n)
	for _, c := range clocks {
		for _, s := range c.samples {
			if k := int(s.at / int64(refSlice)); k < n {
				bins[k] = append(bins[k], s.speed)
			}
		}
	}
	r := &refTime{speed: make([]float64, n), cum: make([]float64, n+1)}
	for k := range bins {
		if len(bins[k]) > 0 {
			r.speed[k] = median(bins[k])
		} else if k > 0 {
			r.speed[k] = r.speed[k-1]
		}
	}
	for k := n - 1; k >= 0; k-- {
		if r.speed[k] == 0 {
			r.speed[k] = 1
			if k+1 < n {
				r.speed[k] = r.speed[k+1]
			}
		}
	}
	for k := range r.speed {
		r.cum[k+1] = r.cum[k] + r.speed[k]*float64(refSlice)
	}
	return r
}

// at returns the reference ns elapsed at wall time t (ns since the phase
// began).
func (r *refTime) at(t int64) float64 {
	k := min(int(t/int64(refSlice)), len(r.speed)-1)
	return r.cum[k] + r.speed[k]*float64(t-int64(k)*int64(refSlice))
}

// refSeconds runs fn and returns how long it took in reference seconds,
// for work that has no operations to probe between (set-up): the calling
// goroutine times refKernel before and after fn, and a second goroutine
// every refEvery while fn runs.
func refSeconds(fn func() error) (float64, error) {
	epoch := time.Now()
	ends, during := speedClock{probe: kernelProbe()}, speedClock{probe: kernelProbe()}
	ends.sample(epoch)
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		t := time.NewTicker(refEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				during.sample(epoch)
			case <-stop:
				return
			}
		}
	}()
	begin := int64(time.Since(epoch))
	err := fn()
	end := int64(time.Since(epoch))
	close(stop)
	<-stopped
	ends.sample(epoch)
	ref := newRefTime([]*speedClock{&ends, &during}, int64(time.Since(epoch)))
	return (ref.at(end) - ref.at(begin)) / 1e9, err
}
