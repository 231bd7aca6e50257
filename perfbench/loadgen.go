package main

import (
	"context"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// newClient returns an HTTP client that holds exactly one connection, so
// the number of clients is the number of connections the load generator
// opens.
func newClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// outcome is what a send function reports about one request.
type outcome struct {
	failure string    // "" when the request succeeded and its output checked out
	wrong   bool      // a 2xx answer whose output failed a check
	cache   string    // the X-Cache header, if any
	end     time.Time // when the operation completed (zero: when send returned)
}

// sample is one request of an open-loop phase, with its times relative to
// the phase start.
type sample struct {
	sched, sent, done time.Duration
	failure           string
	wrong             bool
	cache             string
}

func (s sample) latencyMS() float64 { return float64(s.done-s.sched) / 1e6 }
func (s sample) lateMS() float64    { return float64(s.sent-s.sched) / 1e6 }

// arrivals returns n arrival offsets over dur at a constant rate: arrival
// i falls at a seeded uniform point of its own slot [i, i+1)·dur/n. The
// rate is exact over any window, as with a constant-throughput load
// generator, while the jitter keeps requests from aligning with periodic
// work in the server.
func arrivals(rng *rand.Rand, n int, dur time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	slot := float64(dur) / float64(n)
	for i := range out {
		out[i] = time.Duration((float64(i) + rng.Float64()) * slot)
	}
	return out
}

// openLoop sends request i at sched[i] after the phase start, whatever
// the state of earlier requests, over the given clients (one connection
// each): a request due while every connection is busy waits for the first
// free one, and that wait counts in its latency, which runs from the
// scheduled time. It returns once every request has completed or, after
// ctx ends, every unsent one has been dropped; dropped requests are not
// in the result.
func openLoop(ctx context.Context, clients []*http.Client, sched []time.Duration, send func(c *http.Client, i int) outcome) []sample {
	t0 := time.Now()
	out := make([]sample, len(sched))
	sentOK := make([]bool, len(sched))
	// Buffered to the schedule length so the dispatcher never blocks on
	// busy connections: the queue is the open loop's backlog.
	due := make(chan int, len(sched))
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range due {
				if ctx.Err() != nil {
					continue
				}
				sent := time.Since(t0)
				oc := send(c, i)
				end := oc.end
				if end.IsZero() {
					end = time.Now()
				}
				out[i] = sample{sched: sched[i], sent: sent, done: end.Sub(t0), failure: oc.failure, wrong: oc.wrong, cache: oc.cache}
				sentOK[i] = true
			}
		}(c)
	}
	timer := time.NewTimer(0)
	<-timer.C
dispatch:
	for i, at := range sched {
		if d := time.Until(t0.Add(at)); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		due <- i
	}
	close(due)
	wg.Wait()
	kept := out[:0]
	for i, s := range out {
		if sentOK[i] {
			kept = append(kept, s)
		}
	}
	return kept
}

// closedLoop keeps every client busy for dur: each sends its next request
// as soon as its previous one completed, so the load is whatever the
// program absorbs. next(i) builds request i; calls to it are serialised
// and numbered in order. Latency runs from the send time. Requests still
// in flight at dur complete and are kept.
func closedLoop(ctx context.Context, clients []*http.Client, dur time.Duration, next func(i int) func(c *http.Client) outcome) []sample {
	t0 := time.Now()
	var mu sync.Mutex
	var out []sample
	n := 0
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(t0) < dur {
				mu.Lock()
				send := next(n)
				n++
				mu.Unlock()
				sent := time.Since(t0)
				oc := send(c)
				end := oc.end
				if end.IsZero() {
					end = time.Now()
				}
				mu.Lock()
				out = append(out, sample{sched: sent, sent: sent, done: end.Sub(t0), failure: oc.failure, wrong: oc.wrong, cache: oc.cache})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return out
}
