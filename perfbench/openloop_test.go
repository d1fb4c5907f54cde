package main

import (
	"math"
	"testing"
	"time"
)

// A stalled server charges the stall to every request that was due
// during it: latency runs from the due time, and the generator keeps
// sending on schedule (open loop) instead of waiting.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const rate = 200.0 // one request every 5 ms
	gate := make(chan struct{})
	time.AfterFunc(100*time.Millisecond, func() { close(gate) })
	r := openLoop(rate, 250*time.Millisecond, func(i int) error {
		<-gate
		return nil
	})
	if r.Sent != 50 || len(r.LatMs) != 50 || r.Failed != 0 {
		t.Fatalf("sent %d (%d latencies), failed %d; want 50, 0", r.Sent, len(r.LatMs), r.Failed)
	}
	for i := 0; i < 10; i++ {
		due := float64(i) * 1000 / rate
		if want := 100 - due - 2; r.LatMs[i] < want {
			t.Errorf("request %d (due at %.0fms) latency %.1fms, want >= %.1fms: the stall was not charged from the due time", i, due, r.LatMs[i], want)
		}
	}
	// The generator did not wait for the blocked requests.
	if late := maxOf(r.LateMs); late > 50 {
		t.Errorf("generator ran %.1fms late behind blocked requests", late)
	}
	if s := summarize(r.LatMs); s.P50 > 60 {
		t.Errorf("p50 %.1fms: requests due after the stall should be fast", s.P50)
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	r := openLoop(400, 100*time.Millisecond, func(i int) error {
		if i%4 == 0 {
			return errTest
		}
		return nil
	})
	if r.Failed != 10 {
		t.Fatalf("failed %d of %d, want 10", r.Failed, r.Sent)
	}
	inf := 0
	for _, l := range r.LatMs {
		if math.IsInf(l, 1) {
			inf++
		}
	}
	if inf != 10 || r.meets(1e9, 1) {
		t.Fatalf("%d +Inf latencies, meets=%v: failed requests must miss every limit", inf, r.meets(1e9, 1))
	}
}

type testErr struct{}

func (testErr) Error() string { return "injected" }

var errTest = testErr{}

func TestBacklogGrows(t *testing.T) {
	flat := []int{5, 7, 6, 5, 8, 6, 7, 5, 6, 7, 6, 5}
	ramp := []int{5, 20, 35, 50, 65, 80, 95, 110, 125, 140, 155, 170}
	if backlogGrows(flat, 4) {
		t.Error("flat in-flight counts reported as a growing backlog")
	}
	if !backlogGrows(ramp, 32) {
		t.Error("linearly growing in-flight counts not detected")
	}
	if backlogGrows(nil, 0) || backlogGrows([]int{1, 100}, 0) {
		t.Error("too few samples must not report growth")
	}
}

// fakeServer answers one request at a time, each after service; it
// stops when the test ends.
func fakeServer(t *testing.T, service time.Duration) func(int) error {
	queue := make(chan chan struct{}, 1<<12)
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		for {
			select {
			case done := <-queue:
				time.Sleep(service)
				close(done)
			case <-stop:
				return
			}
		}
	}()
	return func(int) error {
		done := make(chan struct{})
		queue <- done
		<-done
		return nil
	}
}

// A single-worker server with a 5 ms service time (capacity 200/s) keeps
// up at 100/s and falls behind at 600/s; the backlog test alone (with no
// latency limit) must tell the two apart.
func TestBacklogAgainstSaturatedServer(t *testing.T) {
	send := fakeServer(t, 5*time.Millisecond)
	under := openLoop(100, 600*time.Millisecond, send)
	if !under.meets(math.MaxFloat64, 4) {
		t.Errorf("100/s against a 200/s server: in-flight %v reported as failing", under.Inflight)
	}
	over := openLoop(600, 600*time.Millisecond, send)
	if over.meets(math.MaxFloat64, 4) {
		t.Errorf("600/s against a 200/s server: in-flight %v not reported as a growing backlog", over.Inflight)
	}
}

func TestLadderFindsHighestMeetingRate(t *testing.T) {
	const capacity = 1000.0
	var tried []float64
	got := ladder(func(rate float64) bool {
		tried = append(tried, rate)
		return rate <= capacity
	})
	resolution := math.Pow(ladderRatio, 1/math.Pow(2, bisections))
	if got > capacity || got < capacity/resolution {
		t.Fatalf("ladder = %.1f, want within (%.1f, %.1f]; tried %v", got, capacity/resolution, capacity, tried)
	}
	if tried[0] != ladderStart {
		t.Fatalf("ladder started at %v, want the fixed rate %v", tried[0], ladderStart)
	}
	if got := ladder(func(float64) bool { return false }); got != 0 {
		t.Fatalf("nothing meets: ladder = %v, want 0", got)
	}
	top := ladderStart * math.Pow(ladderRatio, ladderMax-1)
	if got := ladder(func(float64) bool { return true }); math.Abs(got-top) > 1e-9 {
		t.Fatalf("everything meets: ladder = %v, want the top rate %v", got, top)
	}
}

// Saturated callers measure the server's capacity, not their own count.
func TestClosedLoopSaturates(t *testing.T) {
	send := fakeServer(t, 5*time.Millisecond)
	done, failed, el := closedLoop(8, 300*time.Millisecond, send)
	rate := float64(done) / el.Seconds()
	if failed != 0 || rate > 205 || rate < 120 {
		t.Fatalf("%d answered, %d failed in %v: %.0f/s, want about 200/s", done, failed, el, rate)
	}
}
