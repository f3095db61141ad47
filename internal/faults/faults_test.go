package faults

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestDecideIsDeterministic: two injectors with the same seed draw
// identical fault sequences on every stream; a different seed diverges.
func TestDecideIsDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Drop: 5, Err: 7, Truncate: 11, Delay: 3}
	a, b := New(cfg), New(cfg)
	streams := []string{"http://peer-1:8080", "http://peer-2:8080", "store.write"}
	for _, stream := range streams {
		for n := 0; n < 256; n++ {
			aAct, aDelay := a.Decide(stream)
			bAct, bDelay := b.Decide(stream)
			if aAct != bAct || aDelay != bDelay {
				t.Fatalf("stream %s call %d: %v/%v vs %v/%v",
					stream, n, aAct, aDelay, bAct, bDelay)
			}
		}
	}

	other := New(Config{Seed: 43, Drop: 5, Err: 7, Truncate: 11, Delay: 3})
	same := true
	fresh := New(cfg)
	for n := 0; n < 256 && same; n++ {
		fAct, _ := fresh.Decide("http://peer-1:8080")
		oAct, _ := other.Decide("http://peer-1:8080")
		same = fAct == oAct
	}
	if same {
		t.Error("seeds 42 and 43 drew identical 256-call sequences")
	}
}

// TestDecideStreamsAreIndependent: interleaving calls on one stream does
// not shift another stream's sequence — the per-stream counter, not
// global call order, indexes the schedule.
func TestDecideStreamsAreIndependent(t *testing.T) {
	cfg := Config{Seed: 7, Drop: 3, Err: 5, Truncate: 7, Delay: 11}
	solo := New(cfg)
	var want []Action
	for n := 0; n < 64; n++ {
		act, _ := solo.Decide("http://peer-a")
		want = append(want, act)
	}

	mixed := New(cfg)
	for n := 0; n < 64; n++ {
		mixed.Decide("http://peer-b") // noise on another stream
		act, _ := mixed.Decide("http://peer-a")
		if act != want[n] {
			t.Fatalf("call %d on peer-a drew %v with interleaving, %v without", n, act, want[n])
		}
		mixed.Decide("http://peer-c")
	}
}

// TestDecideRates: every configured fault fires at roughly its 1-in-N
// rate over a long sequence, and a zero rate never fires.
func TestDecideRates(t *testing.T) {
	in := New(Config{Seed: 1, Drop: 10})
	const calls = 10000
	fired := map[Action]int{}
	for i := 0; i < calls; i++ {
		a, _ := in.Decide("s")
		fired[a]++
	}
	if fired[Error] != 0 || fired[Truncate] != 0 || fired[Delay] != 0 {
		t.Errorf("disabled faults fired: %v", fired)
	}
	// 1-in-10 over 10000 calls: expect ~1000, accept a wide band.
	if fired[Drop] < 500 || fired[Drop] > 2000 {
		t.Errorf("drop rate 1/10 produced %d drops in %d calls", fired[Drop], calls)
	}
}

// TestRoundTripperInjection drives a real HTTP round trip through each
// fault: drops surface as transport errors, injected 502s as responses,
// truncation as a mid-body read failure — all marked injected.
func TestRoundTripperInjection(t *testing.T) {
	payload := strings.Repeat("x", 4096)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, payload)
	}))
	defer ts.Close()

	get := func(client *http.Client) (*http.Response, error) {
		return client.Get(ts.URL)
	}

	t.Run("drop", func(t *testing.T) {
		in := New(Config{Seed: 1, Drop: 1}) // every call drops
		client := &http.Client{Transport: in.RoundTripper(nil)}
		_, err := get(client)
		if err == nil {
			t.Fatal("dropped request succeeded")
		}
		if !strings.Contains(err.Error(), "injected") {
			t.Errorf("drop error %v not marked injected", err)
		}
	})

	t.Run("error", func(t *testing.T) {
		in := New(Config{Seed: 1, Err: 1})
		client := &http.Client{Transport: in.RoundTripper(nil)}
		resp, err := get(client)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Errorf("injected error status %d, want 502", resp.StatusCode)
		}
	})

	t.Run("truncate", func(t *testing.T) {
		in := New(Config{Seed: 1, Truncate: 1})
		client := &http.Client{Transport: in.RoundTripper(nil)}
		resp, err := get(client)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil {
			t.Fatalf("truncated body read %d bytes cleanly (payload %d)", len(body), len(payload))
		}
		var injected *errInjected
		if !errors.As(err, &injected) {
			t.Errorf("truncation error %v not injected", err)
		}
		if len(body) >= len(payload) {
			t.Errorf("truncation delivered the full %d-byte payload", len(body))
		}
	})

	t.Run("delay", func(t *testing.T) {
		in := New(Config{Seed: 1, Delay: 1, MaxDelay: 40 * time.Millisecond})
		client := &http.Client{Transport: in.RoundTripper(nil)}
		start := time.Now()
		resp, err := get(client)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if elapsed := time.Since(start); elapsed < time.Millisecond {
			t.Errorf("delayed call returned in %v", elapsed)
		}
	})
}

// TestSetDownKillsAndRestores: a down target drops every request
// regardless of the schedule; restoring it brings traffic back. This is
// the suites' kill-a-replica switch.
func TestSetDownKillsAndRestores(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer ts.Close()

	in := New(Config{Seed: 9}) // no scheduled faults at all
	client := &http.Client{Transport: in.RoundTripper(nil)}

	if _, err := client.Get(ts.URL); err != nil {
		t.Fatalf("healthy call failed: %v", err)
	}
	in.SetDown(ts.URL, true)
	if _, err := client.Get(ts.URL); err == nil {
		t.Fatal("call to a down target succeeded")
	}
	in.SetDown(ts.URL, false)
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatalf("restored target still down: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestStoreHooksInjection: the store-facing hook fails, tears, or passes
// writes on the deterministic schedule; a nil receiver is a no-op.
func TestStoreHooksInjection(t *testing.T) {
	data := []byte(strings.Repeat("y", 100))

	var zero StoreHooks
	out, err := zero.BeforeWrite("e", data)
	if err != nil || len(out) != len(data) {
		t.Fatalf("zero hooks altered the write: %d bytes, %v", len(out), err)
	}

	fail := New(Config{Seed: 1, Err: 1}).StoreHooks()
	if _, err := fail.BeforeWrite("e", data); err == nil {
		t.Error("scheduled write error did not fire")
	}

	tear := New(Config{Seed: 1, Truncate: 1}).StoreHooks()
	out, err = tear.BeforeWrite("e", data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) >= len(data) {
		t.Errorf("torn write kept %d of %d bytes", len(out), len(data))
	}
}
