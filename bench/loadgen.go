package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"
)

const (
	// loadConns is the number of connections (and sending goroutines) the
	// load uses: the reference host has 2 CPUs.
	loadConns = 2
	// p99LimitMS is the latency limit a rate step must meet.
	p99LimitMS = 2.0
	// lateBoundMS marks a step invalid: beyond it the generator's own
	// lateness, not the server, would shape the latencies.
	lateBoundMS = 1.0
	// warmup is the unmeasured closed loop that opens the connections and
	// warms their buffers before a measured closed loop.
	warmup = 250 * time.Millisecond
)

// arrivals returns the send offsets of an open loop at rate requests per
// second for dur: Poisson arrivals, the traffic of independent users.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return out
		}
		out = append(out, t)
	}
}

// step is the outcome of one open-loop run at a fixed rate.
type step struct {
	rate float64
	// latMS is each request's latency from its due time to its response,
	// so a stall counts against every request queued behind it.
	latMS []float64
	// lateMS is how late the generator handed each request to a
	// connection: its own lateness, not the server's.
	lateMS []float64
	// backlogMax and backlogEnd count requests due but not yet sent, at
	// worst and when the last request fell due.
	backlogMax, backlogEnd int
	errors                 int
}

func (s step) valid() bool { return quantile(s.lateMS, 0.99) <= lateBoundMS }

// meets reports whether the step held the latency limit with no failed
// request and no growing backlog (more than 2 ms of arrivals still queued
// when the last one fell due).
func (s step) meets() bool {
	return s.valid() && s.errors == 0 && quantile(s.latMS, 0.99) <= p99LimitMS &&
		float64(s.backlogEnd) <= 2+s.rate*0.002
}

// openLoop sends request i at start+offsets[i] whatever the server's state:
// a dispatcher hands due requests to loadConns senders through a queue that
// holds every request of the step, so a slow server grows the queue instead
// of slowing the arrivals. do(conn, i, due) sends request i on connection
// conn; it returns false when the request failed.
func openLoop(offsets []time.Duration, rate float64, do func(conn, i int, due time.Time) bool) step {
	n := len(offsets)
	s := step{rate: rate, latMS: make([]float64, n), lateMS: make([]float64, n)}
	queue := make(chan int, n)
	start := time.Now().Add(time.Millisecond)
	failed := make([]bool, n)

	var wg sync.WaitGroup
	for c := range loadConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				due := start.Add(offsets[i])
				failed[i] = !do(c, i, due)
				s.latMS[i] = ms(time.Since(due))
			}
		}()
	}

	dispatched := make(chan struct{})
	go func() {
		defer close(dispatched)
		// The thread keeps the fine timer slack: it is never unlocked, so
		// it exits with this goroutine.
		runtime.LockOSThread()
		preciseTimers()
		for i, off := range offsets {
			due := start.Add(off)
			for time.Until(due) > 0 {
				sleepUntil(due)
			}
			s.lateMS[i] = ms(time.Since(due))
			queue <- i
			s.backlogMax = max(s.backlogMax, len(queue))
		}
		s.backlogEnd = len(queue)
		close(queue)
	}()
	<-dispatched
	wg.Wait()
	for _, f := range failed {
		if f {
			s.errors++
		}
	}
	return s
}

// closedLoop runs loadConns clients until dur has passed, each sending its
// next request as soon as the previous one completes: callers that wait
// for their replies. do(conn) sends one request on connection conn.
func closedLoop(dur time.Duration, do func(conn int)) {
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := range loadConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				do(c)
			}
		}()
	}
	wg.Wait()
}
