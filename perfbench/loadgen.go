package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// An open-loop generator: requests fall due on a fixed schedule
// (evenly spaced at the rung's rate) whatever the system does, and are
// sent by a fixed set of sender goroutines, one keep-alive connection
// each. A request is timed from its due time, so time spent waiting
// for a free sender behind a slow response counts as latency. What
// does not count is the generator's own lateness: a sender that was
// free but woke after the due time. That is reported as lag, and a
// rung whose lag is large is invalid rather than slow.

// shot is the record of one request.
type shot struct {
	seq   int           // global request sequence number
	class int           // request class (workload-defined)
	lat   time.Duration // from due time to response
	at    time.Duration // response time, from the rung's start
	ok    bool          // transport and status succeeded
}

// rung is one step of a rate ladder.
type rung struct {
	rate       float64
	shots      []shot
	lag        sample // ms
	backlogMax int
	backlogEnd int
	abandoned  bool      // fell more than maxLate behind schedule
	start, end time.Time // first due time, last response
}

// servedSlice is the width of the slices served() takes its median
// over.
const servedSlice = 500 * time.Millisecond

// served is the rate of successful responses: the median over
// half-second slices of the rung, so a brief stall of the shared box
// moves one slice rather than the figure. In the saturation rung this
// is the system's capacity.
func (r rung) served(wrong map[int]bool) float64 {
	elapsed := r.end.Sub(r.start)
	n := int(elapsed / servedSlice)
	counts := make([]float64, max(n, 1))
	total := 0.0
	for _, sh := range r.shots {
		if !sh.ok || wrong[sh.seq] {
			continue
		}
		total++
		if i := int(sh.at / servedSlice); i < n {
			counts[i]++
		}
	}
	if n < 2 { // too short to slice
		return total / elapsed.Seconds()
	}
	return sample(counts).median() / servedSlice.Seconds()
}

// sendFunc issues request seq on the given sender's connection and
// reports its class, whether it succeeded, and when the response was
// complete (so bookkeeping after that instant is not timed).
type sendFunc func(sender, seq int) (class int, ok bool, done time.Time)

// maxLate is how far behind schedule a rung may fall before it is
// abandoned: the backlog is then growing without bound, and sending the
// rest would only stretch the run.
const maxLate = time.Second

// openLoop runs one rung: requests seq0, seq0+1, ... fall due every
// 1/rate seconds for dur, and are sent by `senders` goroutines. It
// returns once every request sent has answered.
func openLoop(rate float64, dur time.Duration, senders, seq0 int, send sendFunc) rung {
	n := int(math.Floor(dur.Seconds() * rate))
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var mu sync.Mutex
	start := time.Now()
	r := rung{rate: rate, shots: make([]shot, 0, n), start: start, end: start}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			free := time.Now()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				pick := time.Now()
				if pick.Sub(due) > maxLate {
					mu.Lock()
					r.abandoned = true
					mu.Unlock()
					next.Store(int64(n))
					return
				}
				// Requests already due but not yet picked up.
				backlog := int(pick.Sub(start)/interval) + 1 - (k + 1)
				if backlog < 0 {
					backlog = 0
				}
				ready := due
				if free.After(ready) {
					ready = free
				}
				lag := pick.Sub(ready)
				class, ok, done := send(s, seq0+k)
				free = time.Now()
				mu.Lock()
				r.shots = append(r.shots, shot{seq: seq0 + k, class: class, lat: done.Sub(due), at: done.Sub(start), ok: ok})
				r.lag = append(r.lag, float64(lag)/1e6)
				if backlog > r.backlogMax {
					r.backlogMax = backlog
				}
				if done.After(r.end) {
					r.end = done
				}
				if k == n-1 || k == n-2 {
					r.backlogEnd = backlog
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	return r
}

// closedLoop runs the saturation rung: every sender sends its next
// request as soon as the previous one answered, for dur. Latency is
// timed from each send; the figure of interest is served().
func closedLoop(dur time.Duration, senders, seq0 int, send sendFunc) rung {
	var next atomic.Int64
	var mu sync.Mutex
	start := time.Now()
	r := rung{rate: math.Inf(1), start: start, end: start}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for time.Since(start) < dur {
				seq := seq0 + int(next.Add(1)-1)
				sent := time.Now()
				class, ok, done := send(s, seq)
				mu.Lock()
				r.shots = append(r.shots, shot{seq: seq, class: class, lat: done.Sub(sent), at: done.Sub(start), ok: ok})
				if done.After(r.end) {
					r.end = done
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	return r
}

// latencies returns the latencies (ms) of one class, a failed or wrong
// request counting as +Inf so it misses any limit.
func (r rung) latencies(class int, wrong map[int]bool) (sample, int) {
	var s sample
	failed := 0
	for _, sh := range r.shots {
		if sh.class != class {
			continue
		}
		if !sh.ok || wrong[sh.seq] {
			failed++
			s = append(s, math.Inf(1))
			continue
		}
		s = append(s, float64(sh.lat)/1e6)
	}
	return s, failed
}

// ladderResult summarizes a rate ladder against a latency limit on p99.
type ladderResult struct {
	p99    []float64 // per rung, of the limited class
	valid  []bool    // generator kept its schedule
	meets  []bool
	maxRPS float64
}

// judge evaluates each rung: it meets the limit when its p99 is within
// slo, no request failed, the backlog did not grow, and the generator
// kept up. max_rps is the last rate of the unbroken prefix that meets
// the limit, interpolated on log(p99) towards the first rate that does
// not, so it moves smoothly rather than in ladder steps.
func judge(rungs []rung, class int, slo, lagLimit float64, senders int, wrong map[int]bool) ladderResult {
	var lr ladderResult
	for _, r := range rungs {
		if math.IsInf(r.rate, 1) {
			break // the saturation rung has no schedule to judge
		}
		lat, failed := r.latencies(class, wrong)
		p99 := lat.quantile(0.99)
		valid := r.lag.quantile(0.99) <= lagLimit
		growing := r.abandoned || float64(r.backlogEnd) > math.Max(2*float64(senders), r.rate*slo/1000)
		lr.p99 = append(lr.p99, p99)
		lr.valid = append(lr.valid, valid)
		lr.meets = append(lr.meets, valid && failed == 0 && !growing && p99 <= slo)
	}
	for i, r := range rungs[:len(lr.meets)] {
		if !lr.meets[i] {
			// Interpolate only when the rung failed on latency alone.
			if i > 0 && lr.valid[i] && lr.p99[i] > slo && !math.IsInf(lr.p99[i], 1) {
				lo, hi := math.Log(lr.p99[i-1]), math.Log(lr.p99[i])
				frac := (math.Log(slo) - lo) / (hi - lo)
				lr.maxRPS += frac * (r.rate - rungs[i-1].rate)
			}
			break
		}
		lr.maxRPS = r.rate
	}
	return lr
}
