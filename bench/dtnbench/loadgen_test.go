package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stallServer serialises its requests behind one mutex, like dtnserved's
// engine mutex, and holds it for stall while serving request number at.
func stallServer(at int64, stall time.Duration) *httptest.Server {
	var (
		mu sync.Mutex
		n  atomic.Int64
	)
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if n.Add(1) == at {
			time.Sleep(stall)
		}
	}))
}

func getOp(t *testing.T, url string) op {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	t.Cleanup(hc.CloseIdleConnections)
	return func(int) (int, error) {
		resp, err := hc.Get(url)
		if err != nil {
			return 0, err
		}
		return 0, resp.Body.Close()
	}
}

// A 50 ms stall at 1000 ops/s holds up the ~50 ops due while it lasts.
// Measured from their due time they are slow; measured from when they
// were sent, all but the two in flight look fast. The open loop must
// report the former.
func TestOpenLoopCountsQueuedRequests(t *testing.T) {
	const stall = 50 * time.Millisecond
	srv := stallServer(100, stall)
	defer srv.Close()
	samples, backlog := openLoop(1000, 400, 2, 0, getOp(t, srv.URL))
	var slowFromDue, slowFromSend int
	var worst time.Duration
	for _, s := range samples {
		if s.err != nil {
			t.Fatal(s.err)
		}
		if s.end-s.due > 20*time.Millisecond {
			slowFromDue++
		}
		if s.end-s.start > 20*time.Millisecond {
			slowFromSend++
		}
		worst = max(worst, s.end-s.due)
	}
	if worst < stall {
		t.Errorf("worst latency from due time %v, want at least the %v stall", worst, stall)
	}
	if slowFromDue < 20 {
		t.Errorf("%d ops slower than 20ms from their due time, want the ~30 queued behind the stall", slowFromDue)
	}
	if slowFromSend > 4 {
		t.Errorf("%d ops slower than 20ms from their send time; only the ones in flight during the stall should be", slowFromSend)
	}
	if backlog < 20 {
		t.Errorf("backlog peaked at %d ops, want the stall to queue at least 20", backlog)
	}
	if lat := latenciesMs(samples); lat[len(lat)-1] < float64(stall/time.Millisecond) {
		t.Errorf("latenciesMs tops out at %vms", lat[len(lat)-1])
	}
}

func TestClosedLoopBatches(t *testing.T) {
	srv := stallServer(-1, 0)
	defer srv.Close()
	var seen sync.Map
	get := getOp(t, srv.URL)
	samples := closedLoop(205, 2, 1000, func(i int) (int, error) {
		if _, dup := seen.LoadOrStore(i, true); dup {
			t.Errorf("op %d sent twice", i)
		}
		return get(i)
	})
	if len(samples) != 205 {
		t.Fatalf("closed loop completed %d ops, want 205", len(samples))
	}
	for i := 1000; i < 1205; i++ {
		if _, ok := seen.Load(i); !ok {
			t.Errorf("op %d never sent", i)
		}
	}
	for i, s := range samples {
		if s.err != nil || s.end < s.start || (i > 0 && s.end < samples[i-1].end) {
			t.Fatalf("sample %d %+v out of order or failed", i, s)
		}
	}
	b := batchSeconds(samples, 10)
	if len(b) != len(samples)/10 {
		t.Errorf("%d batches of 10 from %d samples", len(b), len(samples))
	}
	var sum float64
	for _, d := range b {
		sum += d
	}
	if last := samples[10*len(b)-1].end.Seconds(); sum < last-1e-9 || sum > last+1e-9 {
		t.Errorf("batches add up to %vs, want the %vs to the last full batch", sum, last)
	}
}
