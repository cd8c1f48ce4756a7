package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/drs-repro/drs/internal/obs"
)

// traceKeep bounds the traces kept in memory for writing out.
const traceKeep = 20_000

// traceAgg collects completed traces from the assembler: sums for the
// per-layer split, the telescope check, and the first traceKeep traces.
type traceAgg struct {
	mu                                          sync.Mutex
	n                                           int64
	gate, wal, queue, service, shuttle, sojourn int64
	// bySpans and brokenBySpans count traces, and those breaking
	// queue + service + shuttle == sojourn, by segment-span count.
	bySpans, brokenBySpans map[int]int64
	kept                   []obs.Trace
	dropped                uint64 // spans the closed tracers dropped
	closeErr               error
	// Set by finish: traces missing spans the tracer dropped, and
	// complete traces that break the telescope (a harness bug).
	incomplete, telescopeViolations int64
}

func newTraceAgg() *traceAgg {
	return &traceAgg{bySpans: map[int]int64{}, brokenBySpans: map[int]int64{}}
}

// tracer builds a tracer sampling every root (1000 permille) whose
// assembler feeds a; nil on a nil (untraced) aggregate. Each stack gets
// its own: trace ids are admission sequence numbers, which restart with
// every boot.
func (a *traceAgg) tracer() *obs.Tracer {
	if a == nil {
		return nil
	}
	return obs.NewTracer(obs.TracerConfig{
		Shards: 4, ShardCapacity: 1 << 16,
		SamplePermille: 1000,
		Assembler:      obs.NewAssembler(obs.AssemblerConfig{OnComplete: a.add}),
		FlushEvery:     time.Millisecond,
	})
}

// done closes a tracer after its stack stopped, flushing every span into
// the assembler.
func (a *traceAgg) done(t *obs.Tracer) {
	if t == nil {
		return
	}
	err := t.Close()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.dropped += t.Stats().Dropped
	if a.closeErr == nil {
		a.closeErr = err
	}
}

func (a *traceAgg) add(tr obs.Trace) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	a.bySpans[tr.Spans]++
	if tr.QueueNS+tr.ServiceNS+tr.ShuttleNS != tr.SojournNS {
		a.brokenBySpans[tr.Spans]++
	}
	a.gate += tr.GateNS
	a.wal += tr.WALNS
	a.queue += tr.QueueNS
	a.service += tr.ServiceNS
	a.shuttle += tr.ShuttleNS
	a.sojourn += tr.SojournNS
	if len(a.kept) < traceKeep {
		a.kept = append(a.kept, tr)
	}
}

// finish runs the telescope check and fills the trace.* metrics. Every trace of
// one workload folds the same number of segment spans, so when the
// tracer's rings overflowed, a trace with fewer spans than the most
// common count is one that lost spans: it is counted as incomplete, not
// checked. Without drops every trace is checked.
func (a *traceAgg) finish(L map[string]float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	dropped := a.dropped
	mode := 0
	for spans, n := range a.bySpans {
		if n > a.bySpans[mode] || (n == a.bySpans[mode] && spans > mode) {
			mode = spans
		}
	}
	for spans, n := range a.bySpans {
		if dropped > 0 && spans < mode {
			a.incomplete += n
			continue
		}
		a.telescopeViolations += a.brokenBySpans[spans]
	}
	per := func(ns int64) float64 {
		if a.n == 0 {
			return 0
		}
		return float64(ns) / float64(a.n) / 1e3
	}
	L["trace.gate_us"] = per(a.gate)
	L["trace.wal_us"] = per(a.wal)
	L["trace.queue_us"] = per(a.queue)
	L["trace.service_us"] = per(a.service)
	L["trace.shuttle_us"] = per(a.shuttle)
	L["trace.sojourn_us"] = per(a.sojourn)
	L["trace.spans_dropped"] = float64(dropped)
	L["trace.traces"] = float64(a.n)
	L["trace.incomplete"] = float64(a.incomplete)
	return a.closeErr
}

// write stores the kept traces as NDJSON.
func (a *traceAgg) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	a.mu.Lock()
	for _, tr := range a.kept {
		if err := enc.Encode(tr); err != nil {
			a.mu.Unlock()
			f.Close()
			return err
		}
	}
	a.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
