package main

import (
	"sync"
	"time"
)

// sampler polls the stack's gauges every period and keeps time-weighted
// means over the measured window [from, to): ring depth, per-bolt input
// backlog, executors allocated and slots granted. check, when set, runs
// on every in-window sample and counts the samples it rejects.
type sampler struct {
	s        *stack
	from, to time.Time
	period   time.Duration
	check    func() bool

	mu        sync.Mutex
	n         int
	ring      float64
	backlog   map[string]float64
	executors float64
	granted   float64
	rejected  int

	stop chan struct{}
	done chan struct{}
}

func startSampler(s *stack, from, to time.Time, check func() bool) *sampler {
	sp := &sampler{s: s, from: from, to: to, period: 20 * time.Millisecond, check: check,
		backlog: make(map[string]float64), stop: make(chan struct{}), done: make(chan struct{})}
	go sp.loop()
	return sp
}

func (sp *sampler) loop() {
	defer close(sp.done)
	tick := time.NewTicker(sp.period)
	defer tick.Stop()
	for {
		select {
		case <-sp.stop:
			return
		case now := <-tick.C:
			if now.Before(sp.from) {
				continue
			}
			if !now.Before(sp.to) {
				return
			}
			sp.sample()
		}
	}
}

func (sp *sampler) sample() {
	ring := float64(sp.s.gate.Ring().Len())
	q := sp.s.run.QueueLengths()
	execs := 0
	for _, k := range sp.s.run.Allocation() {
		execs += k
	}
	granted := 0
	if sp.s.lease != nil {
		granted = sp.s.lease.Granted()
	}
	ok := sp.check == nil || sp.check()
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.n++
	sp.ring += ring
	for b, n := range q {
		sp.backlog[b] += float64(n)
	}
	sp.executors += float64(execs)
	sp.granted += float64(granted)
	if !ok {
		sp.rejected++
	}
}

// finish stops the sampler and returns the window means.
func (sp *sampler) finish() (n int, ring float64, backlog map[string]float64, executors, granted float64, rejected int) {
	close(sp.stop)
	<-sp.done
	sp.mu.Lock()
	defer sp.mu.Unlock()
	backlog = make(map[string]float64, len(sp.backlog))
	if sp.n == 0 {
		return 0, 0, backlog, 0, 0, 0
	}
	f := float64(sp.n)
	for b, v := range sp.backlog {
		backlog[b] = v / f
	}
	return sp.n, sp.ring / f, backlog, sp.executors / f, sp.granted / f, sp.rejected
}
