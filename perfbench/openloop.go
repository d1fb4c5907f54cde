package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// rung is one fixed-rate step of the open-loop load ladder.
type rung struct {
	Rate   float64 // requests per second offered
	Sent   int
	Failed int
	// LatMs holds each request's latency in ms, measured from the time it
	// was due (not when the generator got round to sending it), so a stall
	// also charges the requests queued behind it. Failed requests are
	// +Inf: they miss every latency limit.
	LatMs []float64
	// LateMs is how late the generator sent each request after its due
	// time.
	LateMs []float64
	// Inflight samples the number of requests sent but not yet answered,
	// once per backlogSegments-th of the rung.
	Inflight []int
}

const backlogSegments = 12

// openLoop offers requests at a fixed rate for dur, from one generator
// goroutine, regardless of how fast they complete: request i is due at
// start + i/rate and is issued on its own goroutine, so a slow server
// accumulates a backlog instead of slowing the generator (the behaviour
// of independent users). It returns once every issued request has
// completed. send must be safe for concurrent use.
func openLoop(rate float64, dur time.Duration, send func(i int) error) rung {
	n := int(rate * dur.Seconds())
	r := rung{Rate: rate, Sent: n, LatMs: make([]float64, n), LateMs: make([]float64, n)}
	if n == 0 {
		return r
	}
	var done atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	segEvery := max(n/backlogSegments, 1)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.LateMs[i] = msSince(due)
		if i%segEvery == 0 {
			r.Inflight = append(r.Inflight, i-int(done.Load()))
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			err := send(i)
			lat := msSince(due)
			if err != nil {
				failed.Add(1)
				lat = math.Inf(1)
			}
			r.LatMs[i] = lat
			done.Add(1)
		}(i, due)
	}
	wg.Wait()
	r.Failed = int(failed.Load())
	return r
}

// closedLoop keeps clients requests in flight for dur: each caller sends
// its next request as soon as its previous one is answered, so the
// server runs saturated. It returns the requests answered and failed,
// and the time until the last one returned.
func closedLoop(clients int, dur time.Duration, send func(i int) error) (done, failed int, elapsed time.Duration) {
	var next, nDone, nFailed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := send(int(next.Add(1) - 1)); err != nil {
					nFailed.Add(1)
				} else {
					nDone.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(nDone.Load()), int(nFailed.Load()), time.Since(start)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// backlogGrows reports whether the in-flight samples of a rung trend
// upward: the mean of the last third exceeds the mean of the first third
// by more than slack requests. Below saturation the in-flight count
// hovers around rate x latency; past it, every second adds the excess
// arrivals, so the thirds drift apart.
func backlogGrows(inflight []int, slack float64) bool {
	k := len(inflight) / 3
	if k == 0 {
		return false
	}
	first, last := 0.0, 0.0
	for i := 0; i < k; i++ {
		first += float64(inflight[i])
		last += float64(inflight[len(inflight)-k+i])
	}
	return (last-first)/float64(k) > slack
}

// backlogSlack is the in-flight growth tolerated within one rung before
// it counts as a growing backlog: a full micro-batch of noise, or 5% of
// the requests offered, whichever is larger.
func backlogSlack(r rung, maxBatch int) float64 {
	return math.Max(float64(maxBatch), 0.05*float64(r.Sent))
}

// meets reports whether a rung meets the serving objective: no failed
// requests, a tail latency within limitMs, and no growing backlog.
func (r rung) meets(limitMs float64, maxBatch int) bool {
	if r.Sent == 0 || r.Failed > 0 {
		return false
	}
	s := summarize(r.LatMs)
	return s.Tail <= limitMs && !backlogGrows(r.Inflight, backlogSlack(r, maxBatch))
}
