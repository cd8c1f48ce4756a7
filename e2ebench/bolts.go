package main

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/drs-repro/drs/internal/engine"
)

// The harness owns every bolt. Each stamps its emit time into the tuple
// it passes on, so the next bolt measures its own queue wait (for a
// remote bolt that includes the shuttle), and books its service time.
// Tuples between bolts are (key, id, due, send, emit stamp), all int64 so
// they cross the worker shuttle unchanged; a zero stamp marks a tuple that
// is not sampled for per-bolt timing.

var errBadRecord = errors.New("e2ebench: malformed record")

// boltStats books one bolt's sampled service times and queue waits.
type boltStats struct{ svc, wait counter }

// runState is what a run's bolts share with the harness.
type runState struct {
	led   *ledger
	bolts map[string]*boltStats
	// The measured window [from, to) is cut into intervals of binNS;
	// records are binned by due time, sink arrivals by arrival time.
	from, to, binNS, tmax int64
	bins                  []interval
	lastSink              maxInt64 // latest sink arrival, unix ns
	// boot, when set, replaces the due time for latency (replay: every
	// recovered record has been owed since the cold boot began). Every
	// recovered record is late by then, so the Tmax verdict instead runs
	// from the moment the entry bolt takes a record up, on the records
	// sampled for per-bolt timing: it checks the pipeline behind the
	// entry queue, which a replay floods.
	boot int64
	// fromSend times and bins latency from the record's send time, not
	// its due time (see genConfig.fromSend).
	fromSend bool
	// sampleEvery picks the records timed per bolt (id % sampleEvery == 0).
	sampleEvery uint64
}

func newRunState(led *ledger, names ...string) *runState {
	rs := &runState{led: led, bolts: make(map[string]*boltStats), sampleEvery: 1}
	for _, n := range names {
		rs.bolts[n] = &boltStats{}
	}
	return rs
}

// interval books one slice of the measured window.
type interval struct {
	lat      Hist         // origin -> sink latency of records whose origin is in the interval
	hits     atomic.Int64 // of those, reached the sink within tmax
	timed    atomic.Int64 // with boot set: records given a Tmax verdict
	arrivals atomic.Int64 // sink arrivals during the interval
}

// setWindow cuts [from, to) into n equal intervals.
func (rs *runState) setWindow(from, to int64, n int) {
	rs.from, rs.to, rs.binNS = from, to, (to-from)/int64(n)
	rs.bins = make([]interval, n)
}

// binIndex is the interval holding time t, or -1 outside the window.
func binIndex(t, from, to, binNS int64, n int) int {
	if t < from || t >= to {
		return -1
	}
	return min(int((t-from)/binNS), n-1)
}

// bin returns the interval holding time t, or nil outside the window.
func (rs *runState) bin(t int64) *interval {
	if i := binIndex(t, rs.from, rs.to, rs.binNS, len(rs.bins)); i >= 0 {
		return &rs.bins[i]
	}
	return nil
}

// maxInt64 is an atomic int64 that only moves up.
type maxInt64 struct{ atomic.Int64 }

func (m *maxInt64) max(x int64) {
	for {
		old := m.Load()
		if x <= old || m.CompareAndSwap(old, x) {
			return
		}
	}
}

// begin starts a sampled bolt's service clock (0 when not sampled).
func begin(sampled bool) int64 {
	if !sampled {
		return 0
	}
	return nowNS()
}

// end books the service time since t0 and the queue wait since the
// upstream emit stamp, and returns the stamp to emit (0 when t0 is).
func (rs *runState) end(name string, upstream, t0 int64) int64 {
	if t0 == 0 {
		return 0
	}
	t1 := nowNS()
	st := rs.bolts[name]
	st.svc.add(t1 - t0)
	if upstream != 0 {
		st.wait.add(t0 - upstream)
	}
	return t1
}

// parseBolt decodes the 64-byte record into the inter-bolt tuple; with
// mu > 0 it also sleeps an exponential service time (mean 1/mu s).
func parseBolt(rs *runState, name string, mu float64, seed int64) engine.BoltFactory {
	return func(task int) engine.Bolt {
		rng := rand.New(rand.NewSource(seed + int64(task)))
		return engine.BoltFunc(func(tu engine.Tuple, emit engine.Emit) error {
			rec, ok := tu.Values[0].([]byte)
			if !ok || len(rec) != recSize {
				return errBadRecord
			}
			id, pop := recordID(rec), recordPop(rec)
			due := recordDue(rec)
			t0 := begin(id%rs.sampleEvery == 0)
			if rs.boot != 0 {
				due = t0
			}
			serviceSleep(rng, mu)
			emit(engine.Values{int64(recordKey(rec)), int64(id), due, recordSend(rec), rs.end(name, pop, t0)})
			return nil
		})
	}
}

// tallyBolt is the stateful stage: it books the key in the ledger (the
// count the audit checks) and passes the tuple on.
func tallyBolt(rs *runState, name string, mu float64, seed int64) engine.BoltFactory {
	return func(task int) engine.Bolt {
		rng := rand.New(rand.NewSource(seed + int64(task)))
		return engine.BoltFunc(func(tu engine.Tuple, emit engine.Emit) error {
			key, id, due, send, up, err := fields(tu.Values)
			if err != nil {
				return err
			}
			t0 := begin(up != 0)
			serviceSleep(rng, mu)
			rs.led.tally(key)
			emit(engine.Values{key, id, due, send, rs.end(name, up, t0)})
			return nil
		})
	}
}

// sinkBolt is the end of every chain: it books arrival, latency from the
// due (or send) time, and the Tmax verdict.
func sinkBolt(rs *runState) engine.BoltFactory {
	return func(int) engine.Bolt {
		return engine.BoltFunc(func(tu engine.Tuple, _ engine.Emit) error {
			_, id, due, send, up, err := fields(tu.Values)
			if err != nil {
				return err
			}
			now := nowNS()
			t0 := begin(up != 0)
			rs.led.sink(uint64(id))
			if rs.boot != 0 {
				b := &rs.bins[0]
				b.lat.Add(now - rs.boot)
				if due != 0 {
					b.timed.Add(1)
					if now-due <= rs.tmax {
						b.hits.Add(1)
					}
				}
			} else {
				origin := due
				if rs.fromSend {
					origin = send
				}
				if b := rs.bin(origin); b != nil {
					lat := now - origin
					b.lat.Add(lat)
					if lat <= rs.tmax {
						b.hits.Add(1)
					}
				}
			}
			if b := rs.bin(now); b != nil {
				b.arrivals.Add(1)
			}
			rs.lastSink.max(now)
			rs.end("sink", up, t0)
			return nil
		})
	}
}

func fields(v engine.Values) (key, id, due, send, stamp int64, err error) {
	if len(v) != 5 {
		return 0, 0, 0, 0, 0, errBadRecord
	}
	var ok [5]bool
	key, ok[0] = v[0].(int64)
	id, ok[1] = v[1].(int64)
	due, ok[2] = v[2].(int64)
	send, ok[3] = v[3].(int64)
	stamp, ok[4] = v[4].(int64)
	if !ok[0] || !ok[1] || !ok[2] || !ok[3] || !ok[4] {
		return 0, 0, 0, 0, 0, errBadRecord
	}
	return key, id, due, send, stamp, nil
}

// serviceSleep burns an exponential service time the way drsctl's live
// operators do: by sleeping (mu <= 0 means no service time).
func serviceSleep(rng *rand.Rand, mu float64) {
	if mu > 0 {
		time.Sleep(time.Duration(rng.ExpFloat64() / mu * float64(time.Second)))
	}
}
