package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// op is one request the load generator sends: do(i) performs op i and
// returns its kind (an index into the caller's kind table).
type op func(i int) (kind int, err error)

// sample times one op. Times are offsets from the loop's start; in an
// open loop due is when the schedule wanted the op sent.
type sample struct {
	kind            int
	due, start, end time.Duration
	err             error
}

// openLoop sends n ops, op first+k due k/rate seconds after the start,
// from workers goroutines. A worker that picks an op up after its due
// time still measures it from that time, so the wait a stall imposes on
// the ops queued behind it counts in their latency. backlog is the
// largest number of ops that were due but not yet sent.
func openLoop(rate float64, n, workers, first int, do op) (samples []sample, backlog int) {
	samples = make([]sample, n)
	var next, maxBacklog atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				due := time.Duration(float64(k) / rate * float64(time.Second))
				if wait := due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				start := time.Since(t0)
				// Ops due by now, minus the k already sent and this one.
				dueNow := min(int64(start.Seconds()*rate)+1, int64(n))
				for b := dueNow - int64(k) - 1; ; {
					old := maxBacklog.Load()
					if b <= old || maxBacklog.CompareAndSwap(old, b) {
						break
					}
				}
				kind, err := do(first + k)
				samples[k] = sample{kind, due, start, time.Since(t0), err}
			}
		}()
	}
	wg.Wait()
	return samples, int(maxBacklog.Load())
}

// closedLoop sends n ops, first to first+n-1, from workers goroutines
// that each send the next op as soon as their previous one completes. A
// fixed count makes a faster server do the same work as a slower one,
// just sooner. The samples come back ordered by completion.
func closedLoop(n, workers, first int, do op) []sample {
	out := make([]sample, n)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
				start := time.Since(t0)
				kind, err := do(first + k)
				out[k] = sample{kind, start, start, time.Since(t0), err}
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].end < out[b].end })
	return out
}

// latenciesMs returns the ascending latencies of the samples, measured
// from their due time.
func latenciesMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.end-s.due) / float64(time.Millisecond)
	}
	return sorted(out)
}

// batchSeconds splits samples ordered by completion into consecutive
// batches of size ops and returns each batch's duration.
func batchSeconds(samples []sample, size int) []float64 {
	var out []float64
	prev := time.Duration(0)
	for i := size - 1; i < len(samples); i += size {
		out = append(out, (samples[i].end - prev).Seconds())
		prev = samples[i].end
	}
	return out
}
