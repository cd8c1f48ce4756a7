package main

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/loop"
	"github.com/drs-repro/drs/internal/metrics"
)

// The wrappers below time the stack's layers from outside, through the
// public seams the stack already takes. Each forwards every optional
// interface its inner value implements, because the stack discovers
// those by type assertion: a source that hid AckBatchSource would stop
// the WAL watermark, one that hid TracedBatchSource would drop trace ids,
// and a pool that hid TenantReporter would starve the scheduler.

func nowNS() int64 { return time.Now().UnixNano() }

// sourceStats books the spout's pops: time blocked inside the source,
// batches and items.
type sourceStats struct {
	waitNS, pops, items atomic.Int64
}

// source times PopBatch and stamps each record's pop time into its
// bytes (the WAL already holds the record, so the stamp never reaches
// the log).
type source struct {
	inner engine.BatchSource
	st    *sourceStats
}

func (s *source) book(t0 int64, batch []engine.Values) {
	t1 := nowNS()
	s.st.waitNS.Add(t1 - t0)
	s.st.pops.Add(1)
	s.st.items.Add(int64(len(batch)))
	for _, v := range batch {
		if len(v) == 1 {
			if b, ok := v[0].([]byte); ok && len(b) == recSize {
				stampPop(b, t1)
			}
		}
	}
}

func (s *source) PopBatch(done <-chan struct{}, buf []engine.Values) ([]engine.Values, bool) {
	t0 := nowNS()
	batch, ok := s.inner.PopBatch(done, buf)
	s.book(t0, batch)
	return batch, ok
}

func (s *source) popAcked(done <-chan struct{}, buf []engine.Values) ([]engine.Values, func(), bool) {
	t0 := nowNS()
	batch, ack, ok := s.inner.(engine.AckBatchSource).PopBatchAcked(done, buf)
	s.book(t0, batch)
	return batch, ack, ok
}

func (s *source) popTraced(done <-chan struct{}, buf []engine.Values, ids []uint64) ([]engine.Values, []uint64, func(), bool) {
	t0 := nowNS()
	batch, traces, ack, ok := s.inner.(engine.TracedBatchSource).PopBatchTraced(done, buf, ids)
	s.book(t0, batch)
	return batch, traces, ack, ok
}

type ackedSource struct{ *source }

func (s ackedSource) PopBatchAcked(done <-chan struct{}, buf []engine.Values) ([]engine.Values, func(), bool) {
	return s.popAcked(done, buf)
}

type tracedSource struct{ *source }

func (s tracedSource) PopBatchTraced(done <-chan struct{}, buf []engine.Values, ids []uint64) ([]engine.Values, []uint64, func(), bool) {
	return s.popTraced(done, buf, ids)
}

type ackedTracedSource struct{ *source }

func (s ackedTracedSource) PopBatchAcked(done <-chan struct{}, buf []engine.Values) ([]engine.Values, func(), bool) {
	return s.popAcked(done, buf)
}

func (s ackedTracedSource) PopBatchTraced(done <-chan struct{}, buf []engine.Values, ids []uint64) ([]engine.Values, []uint64, func(), bool) {
	return s.popTraced(done, buf, ids)
}

// wrapSource returns a timed source with exactly the inner source's
// optional interfaces.
func wrapSource(inner engine.BatchSource, st *sourceStats) engine.BatchSource {
	s := &source{inner: inner, st: st}
	_, acked := inner.(engine.AckBatchSource)
	_, traced := inner.(engine.TracedBatchSource)
	switch {
	case acked && traced:
		return ackedTracedSource{s}
	case acked:
		return ackedSource{s}
	case traced:
		return tracedSource{s}
	default:
		return s
	}
}

// remoteStats books shuttle round trips: ProcessBatch call to done.
type remoteStats struct {
	rtt   Hist
	items counter
}

// timedRemote wraps one worker's transport. The engine compares bound
// executors with ==, so remotes hands out one wrapper per machine.
type timedRemote struct {
	inner engine.RemoteExecutor
	st    *remoteStats
}

func (r *timedRemote) ProcessBatch(bolt string, items []engine.RemoteItem, done func(engine.RemoteResult, error)) error {
	t0 := nowNS()
	n := int64(len(items))
	return r.inner.ProcessBatch(bolt, items, func(res engine.RemoteResult, err error) {
		r.st.rtt.Add(nowNS() - t0)
		r.st.items.add(n)
		done(res, err)
	})
}

// remotes caches one timedRemote per machine.
type remotes struct {
	mu    sync.Mutex
	byID  map[int]*timedRemote
	inner func(machine int) engine.RemoteExecutor
	st    *remoteStats
}

func (r *remotes) get(machine int) engine.RemoteExecutor {
	inner := r.inner(machine)
	if inner == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if w := r.byID[machine]; w != nil && w.inner == inner {
		return w
	}
	w := &timedRemote{inner: inner, st: r.st}
	r.byID[machine] = w
	return w
}

// loopStats books the control plane: interval drains, rebalances,
// controller steps and the model's predictions.
type loopStats struct {
	drain, rebalance, step counter
	resizes                atomic.Int64

	mu     sync.Mutex
	rounds []stepSample
}

// stepSample is one controller step's prediction against measurement.
type stepSample struct {
	at        int64   // unix ns
	predicted float64 // model E[T], seconds
	measured  float64 // measured E[T], seconds (0 = unknown)
	hold      bool    // ActionNone: predicted is for the allocation in force
}

// timedTarget wraps the supervisor's target.
type timedTarget struct {
	inner loop.Target
	st    *loopStats
}

func (t timedTarget) DrainInterval() metrics.IntervalReport {
	t0 := nowNS()
	rep := t.inner.DrainInterval()
	t.st.drain.add(nowNS() - t0)
	return rep
}

func (t timedTarget) Allocation() map[string]int { return t.inner.Allocation() }

func (t timedTarget) Rebalance(alloc map[string]int, pause time.Duration) error {
	t0 := nowNS()
	err := t.inner.Rebalance(alloc, pause)
	t.st.rebalance.add(nowNS() - t0)
	return err
}

// timedStepper wraps the controller.
type timedStepper struct {
	inner core.Stepper
	st    *loopStats
}

func (s timedStepper) Step(snap core.Snapshot) (core.Decision, error) {
	t0 := nowNS()
	d, err := s.inner.Step(snap)
	t1 := nowNS()
	s.st.step.add(t1 - t0)
	if err == nil && d.Estimated > 0 {
		s.st.mu.Lock()
		s.st.rounds = append(s.st.rounds, stepSample{at: t1, predicted: d.Estimated,
			measured: snap.MeasuredSojourn, hold: d.Action == core.ActionNone})
		s.st.mu.Unlock()
	}
	return d, err
}

// timedPool wraps the supervisor's pool (the scheduler lease).
type timedPool struct {
	inner loop.Pool
	st    *loopStats
}

func (p *timedPool) Kmax() int                     { return p.inner.Kmax() }
func (p *timedPool) Rebalance() cluster.Transition { return p.inner.Rebalance() }
func (p *timedPool) Resize(k int) (cluster.Transition, error) {
	p.st.resizes.Add(1)
	return p.inner.Resize(k)
}

func (p *timedPool) report(r cluster.TenantReport) { p.inner.(loop.TenantReporter).Report(r) }
func (p *timedPool) lostSlots() int                { return p.inner.(loop.ChurnReporter).LostSlots() }

type reportingPool struct{ *timedPool }

func (p reportingPool) Report(r cluster.TenantReport) { p.report(r) }

type churnPool struct{ *timedPool }

func (p churnPool) LostSlots() int { return p.lostSlots() }

type reportingChurnPool struct{ *timedPool }

func (p reportingChurnPool) Report(r cluster.TenantReport) { p.report(r) }
func (p reportingChurnPool) LostSlots() int                { return p.lostSlots() }

// wrapPool returns a timed pool with exactly the inner pool's optional
// interfaces.
func wrapPool(inner loop.Pool, st *loopStats) loop.Pool {
	p := &timedPool{inner: inner, st: st}
	_, reports := inner.(loop.TenantReporter)
	_, churns := inner.(loop.ChurnReporter)
	switch {
	case reports && churns:
		return reportingChurnPool{p}
	case reports:
		return reportingPool{p}
	case churns:
		return churnPool{p}
	default:
		return p
	}
}
