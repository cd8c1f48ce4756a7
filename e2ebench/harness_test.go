package main

import (
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/ingest"
	"github.com/drs-repro/drs/internal/loop"
	"github.com/drs-repro/drs/internal/wal"
)

func TestQuantileSortedNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.99, 10}, {1, 10},
	} {
		if got := quantileSorted(xs, c.q); got != c.want {
			t.Errorf("quantileSorted(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantileSorted(nil, 0.5); got != 0 {
		t.Errorf("empty sample quantile = %v, want 0", got)
	}
}

func TestHistQuantileAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 10, 1000, 100_000} {
		var h Hist
		xs := make([]float64, n)
		for i := range xs {
			v := int64(math.Exp(rng.NormFloat64()*2 + 12)) // ~160 µs median, wide tail
			if i%97 == 0 {
				v = int64(rng.Intn(histSub)) // exact small values too
			}
			h.Add(v)
			xs[i] = float64(v)
		}
		sort.Float64s(xs)
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			want := quantileSorted(xs, q)
			got := h.Quantile(q)
			if math.Abs(got-want) > want/histSub+1 {
				t.Errorf("n=%d q=%v: hist %v, sorted reference %v", n, q, got, want)
			}
		}
		if h.Count() != uint64(n) {
			t.Errorf("count %d, want %d", h.Count(), n)
		}
	}
}

func TestHistIndexIsMonotonic(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<20; v += 1 + v/1000 {
		i := histIndex(v)
		if i < prev {
			t.Fatalf("histIndex(%d) = %d < %d", v, i, prev)
		}
		if lo, width := histBounds(i); float64(v) < lo || float64(v) >= lo+width || width > float64(v)/histSub+1 {
			t.Fatalf("%d is outside bucket %d [%v, %v)", v, i, lo, lo+width)
		}
		prev = i
	}
}

func TestCalmSlices(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []int
	}{
		{[]float64{0.01, 0.02, 0.0}, []int{0, 2}},
		{[]float64{0.3, 0.01, 0.2, 0.04, 0.5, 0.3}, []int{1, 2, 3}},
		{[]float64{0.3}, []int{0}},
	} {
		if got := calmSlices(c.steal); !slices.Equal(got, c.want) {
			t.Errorf("calmSlices(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
	// The least-stolen half still lost over calmSteal: the run is invalid.
	r := newResult()
	if got := r.calm([]float64{0.3, 0.2, 0.26, 0.1, 0.04, 0.35, 0.3}); !slices.Equal(got, []int{1, 2, 3, 4}) || len(r.problems) != 1 {
		t.Errorf("mostly stolen run: picked %v, problems %v", got, r.problems)
	}
	r = newResult()
	if got := r.calm([]float64{0.3, 0.01, 0.2}); !slices.Equal(got, []int{1, 2}) || len(r.problems) != 0 {
		t.Errorf("half calm: picked %v, problems %v", got, r.problems)
	}
}

// fakeFrontDoor serves the ingest wire protocol on loopback: after the
// hello frame it reads records and, when answer is set, acks each at
// once; otherwise it never answers.
func fakeFrontDoor(t *testing.T, answer bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close() // the generator closes its end first
				var hdr [4]byte
				buf := make([]byte, 1<<10)
				for {
					if _, err := io.ReadFull(c, hdr[:]); err != nil {
						return
					}
					if _, err := io.ReadFull(c, buf[:binary.BigEndian.Uint32(hdr[:])]); err != nil {
						return
					}
					if hello := buf[0] == 'g'; answer && !hello {
						if _, err := c.Write([]byte{ingest.TCPAck, 0, 0, 0, 0}); err != nil {
							return
						}
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// backloggedShare runs the generator at rate against addr for 300 ms and
// returns the share of 2 ms samples in which backlogged held.
func backloggedShare(t *testing.T, addr string, rate float64) float64 {
	t.Helper()
	const perConn = 1 << 16
	led := newLedger(2, perConn)
	g, err := dialGenerator(genConfig{addr: addr, conns: 2, rate: rate, seed: 1, window: 64, maxPerConn: perConn}, led.acked)
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Now()
	stop := epoch.Add(300 * time.Millisecond)
	g.start(epoch, epoch, stop, stop, 1)
	n, yes := 0, 0
	for time.Now().Before(stop) {
		time.Sleep(2 * time.Millisecond)
		n++
		if g.backlogged() {
			yes++
		}
	}
	g.closeConns()
	g.wg.Wait()
	return float64(yes) / float64(n)
}

func TestBackloggedRejectsAnIdleStack(t *testing.T) {
	// A front door that answers at once, offered 200 rec/s: the
	// connections sit empty between records.
	if share := backloggedShare(t, fakeFrontDoor(t, true), 200); share >= minBacklogged {
		t.Errorf("idle stack: backlogged in %.2f of samples, want below %.2f", share, minBacklogged)
	}
	// A front door that never answers holds every record sent.
	if share := backloggedShare(t, fakeFrontDoor(t, false), 2000); share < minBacklogged {
		t.Errorf("stalled stack: backlogged in %.2f of samples, want at least %.2f", share, minBacklogged)
	}
}

// ledgerWith acks ids 0..n-1 on one connection and returns the ledger
// and the acknowledged per-key counts (key = id % numKeys).
func ledgerWith(n int) (*ledger, *[numKeys]int64) {
	l := newLedger(1, n)
	var keys [numKeys]int64
	for i := 0; i < n; i++ {
		l.acked[0].set(uint64(i))
		keys[i%numKeys]++
	}
	return l, &keys
}

func TestAuditPassesExactlyOnce(t *testing.T) {
	l, keys := ledgerWith(300)
	for i := 0; i < 300; i++ {
		l.tally(int64(i % numKeys))
		l.sink(uint64(i))
	}
	if a := l.verify(keys, 300, 300, 300); a.failures() != 0 {
		t.Fatalf("clean run audited as %v", a)
	}
}

func TestAuditCatchesLostRecord(t *testing.T) {
	l, keys := ledgerWith(300)
	for i := 0; i < 300; i++ {
		if i == 42 {
			continue // admitted, acknowledged, never completed
		}
		l.tally(int64(i % numKeys))
		l.sink(uint64(i))
	}
	a := l.verify(keys, 300, 300, 299)
	if a.Lost != 1 || a.KeyMismatch != 1 || a.CountMismatch != 1 {
		t.Fatalf("lost record audited as %+v", a)
	}
}

func TestAuditCatchesDuplicate(t *testing.T) {
	l, keys := ledgerWith(300)
	for i := 0; i < 300; i++ {
		l.tally(int64(i % numKeys))
		l.sink(uint64(i))
	}
	l.tally(7)
	l.sink(7) // redelivered after a replay
	a := l.verify(keys, 300, 300, 301)
	if a.Duplicated != 1 || a.KeyMismatch != 1 || a.CountMismatch != 1 || a.failures() == 0 {
		t.Fatalf("duplicate audited as %+v", a)
	}
}

func TestAuditCatchesUnacknowledgedAndForeign(t *testing.T) {
	l, keys := ledgerWith(10)
	for i := 0; i < 10; i++ {
		l.tally(int64(i % numKeys))
		l.sink(uint64(i))
	}
	l.seen[0].set(11)    // reached the sink without an ack
	l.sink(5 << idShift) // a connection that never existed
	l.tally(numKeys + 3) // a key outside the workload
	a := l.verify(keys, 10, 10, 10)
	if a.Unexpected != 1 || a.Foreign != 2 {
		t.Fatalf("stray records audited as %+v", a)
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64, conn int) ([]int64, []uint8) {
		s := newSchedule(seed, conn, 1000)
		var offs []int64
		var keys []uint8
		for i := 0; i < 5000; i++ {
			o, k := s.next()
			offs, keys = append(offs, o), append(keys, k)
		}
		return offs, keys
	}
	a, ak := draw(3, 0)
	b, bk := draw(3, 0)
	for i := range a {
		if a[i] != b[i] || ak[i] != bk[i] {
			t.Fatalf("seed 3 diverged at %d: (%d,%d) vs (%d,%d)", i, a[i], ak[i], b[i], bk[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("offsets not ascending at %d", i)
		}
	}
	for _, other := range [][2]int64{{4, 0}, {3, 1}} {
		c, _ := draw(other[0], int(other[1]))
		same := 0
		for i := range a {
			if a[i] == c[i] {
				same++
			}
		}
		if same > len(a)/100 {
			t.Errorf("seed/conn %v repeats seed 3's schedule (%d equal offsets)", other, same)
		}
	}
	// 5000 Poisson arrivals at 1000/s span about 5 s.
	if span := time.Duration(a[len(a)-1]); span < 4500*time.Millisecond || span > 5500*time.Millisecond {
		t.Errorf("5000 arrivals at 1000/s spanned %v", span)
	}
	var seen [numKeys]bool
	for _, k := range ak {
		if int(k) >= numKeys {
			t.Fatalf("key %d out of range", k)
		}
		seen[k] = true
	}
	for k, ok := range seen {
		if !ok {
			t.Errorf("key %d never drawn in 5000 records", k)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	b := make([]byte, recSize)
	encodeRecord(b, 123456789, 123456999, 2<<idShift|77, 99)
	stampPop(b, 42)
	if recordDue(b) != 123456789 || recordSend(b) != 123456999 || recordID(b) != 2<<idShift|77 || recordKey(b) != 99 || recordPop(b) != 42 {
		t.Fatalf("round trip: due %d send %d id %d key %d pop %d", recordDue(b), recordSend(b), recordID(b), recordKey(b), recordPop(b))
	}
}

// Fake sources with each combination of the optional interfaces.
type plainSrc struct{ pops int }

func (s *plainSrc) PopBatch(<-chan struct{}, []engine.Values) ([]engine.Values, bool) {
	s.pops++
	return nil, true
}

type ackSrc struct{ plainSrc }

func (s *ackSrc) PopBatchAcked(<-chan struct{}, []engine.Values) ([]engine.Values, func(), bool) {
	s.pops++
	return nil, func() {}, true
}

type tracedSrc struct{ plainSrc }

func (s *tracedSrc) PopBatchTraced(_ <-chan struct{}, _ []engine.Values, ids []uint64) ([]engine.Values, []uint64, func(), bool) {
	s.pops++
	return nil, ids, nil, true
}

type ackTracedSrc struct{ ackSrc }

func (s *ackTracedSrc) PopBatchTraced(_ <-chan struct{}, _ []engine.Values, ids []uint64) ([]engine.Values, []uint64, func(), bool) {
	s.pops++
	return nil, ids, nil, true
}

func interfacesOf(s engine.BatchSource) (acked, traced bool) {
	_, acked = s.(engine.AckBatchSource)
	_, traced = s.(engine.TracedBatchSource)
	return
}

func TestSourceWrapperForwardsOptionalInterfaces(t *testing.T) {
	dir := t.TempDir()
	log, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	durable := ingest.NewGate(ingest.GateConfig{})
	if err := durable.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	plain := ingest.NewGate(ingest.GateConfig{})
	for name, inner := range map[string]engine.BatchSource{
		"plain":          &plainSrc{},
		"acked":          &ackSrc{},
		"traced":         &tracedSrc{},
		"acked+traced":   &ackTracedSrc{},
		"gate ring":      plain.Source(),
		"durable source": durable.Source(),
	} {
		wantAck, wantTraced := interfacesOf(inner)
		var st sourceStats
		w := wrapSource(inner, &st)
		gotAck, gotTraced := interfacesOf(w)
		if gotAck != wantAck || gotTraced != wantTraced {
			t.Errorf("%s: wrapper acked=%v traced=%v, inner acked=%v traced=%v",
				name, gotAck, gotTraced, wantAck, wantTraced)
		}
		if _, isFake := inner.(interface {
			PopBatch(<-chan struct{}, []engine.Values) ([]engine.Values, bool)
		}); !isFake {
			continue
		}
		if f, ok := inner.(*plainSrc); ok {
			w.PopBatch(nil, nil)
			if f.pops != 1 {
				t.Errorf("%s: PopBatch not forwarded", name)
			}
		}
		if a, ok := w.(engine.AckBatchSource); ok && name != "durable source" {
			if _, ack, _ := a.PopBatchAcked(nil, nil); ack == nil {
				t.Errorf("%s: PopBatchAcked dropped the ack", name)
			}
		}
		if tr, ok := w.(engine.TracedBatchSource); ok && name != "gate ring" && name != "durable source" {
			ids := []uint64{9}
			if _, got, _, _ := tr.PopBatchTraced(nil, nil, ids); len(got) != 1 || got[0] != 9 {
				t.Errorf("%s: PopBatchTraced dropped the trace ids", name)
			}
		}
		if st.pops.Load() == 0 && name != "gate ring" && name != "durable source" {
			t.Errorf("%s: wrapper booked no pop", name)
		}
	}
}

func TestSourceWrapperStampsPopTime(t *testing.T) {
	g := ingest.NewGate(ingest.GateConfig{})
	rec := make([]byte, recSize)
	encodeRecord(rec, 1, 1, 2, 3)
	if !g.Ring().TryPush(engine.Values{rec}) {
		t.Fatal("push refused")
	}
	var st sourceStats
	before := nowNS()
	batch, ok := wrapSource(g.Source(), &st).PopBatch(nil, make([]engine.Values, 0, 4))
	if !ok || len(batch) != 1 {
		t.Fatalf("pop: %v %d", ok, len(batch))
	}
	if pop := recordPop(batch[0][0].([]byte)); pop < before {
		t.Fatalf("pop stamp %d predates the pop (%d)", pop, before)
	}
	if st.items.Load() != 1 || st.pops.Load() != 1 {
		t.Fatalf("booked %d items over %d pops", st.items.Load(), st.pops.Load())
	}
}

// Fake pools with each combination of the optional interfaces.
type basePool struct{ reports, lost int }

func (p *basePool) Kmax() int                              { return 4 }
func (p *basePool) Rebalance() cluster.Transition          { return cluster.Transition{} }
func (p *basePool) Resize(int) (cluster.Transition, error) { return cluster.Transition{}, nil }

type reportPool struct{ basePool }

func (p *reportPool) Report(cluster.TenantReport) { p.reports++ }

type lossPool struct{ basePool }

func (p *lossPool) LostSlots() int { p.lost++; return 2 }

type reportLossPool struct{ reportPool }

func (p *reportLossPool) LostSlots() int { p.lost++; return 2 }

func TestPoolWrapperForwardsOptionalInterfaces(t *testing.T) {
	cp, err := cluster.NewPool(cluster.PoolConfig{SlotsPerMachine: 4, MaxMachines: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := cluster.NewScheduler(cluster.SchedulerConfig{Pool: cp})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := sched.Register(cluster.TenantConfig{Name: "t", MinSlots: 1, InitialSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, inner := range map[string]loop.Pool{
		"plain":           &basePool{},
		"reporter":        &reportPool{},
		"churn":           &lossPool{},
		"reporter+churn":  &reportLossPool{},
		"scheduler lease": lease,
	} {
		_, wantReport := inner.(loop.TenantReporter)
		_, wantChurn := inner.(loop.ChurnReporter)
		var st loopStats
		w := wrapPool(inner, &st)
		r, gotReport := w.(loop.TenantReporter)
		c, gotChurn := w.(loop.ChurnReporter)
		if gotReport != wantReport || gotChurn != wantChurn {
			t.Errorf("%s: wrapper reporter=%v churn=%v, inner reporter=%v churn=%v",
				name, gotReport, gotChurn, wantReport, wantChurn)
		}
		if gotReport {
			r.Report(cluster.TenantReport{Lambda0: 1})
		}
		if gotChurn {
			c.LostSlots()
		}
		switch p := inner.(type) {
		case *reportPool:
			if p.reports != 1 {
				t.Errorf("%s: Report not forwarded", name)
			}
		case *lossPool:
			if p.lost != 1 {
				t.Errorf("%s: LostSlots not forwarded", name)
			}
		case *reportLossPool:
			if p.reports != 1 || p.lost != 1 {
				t.Errorf("%s: Report/LostSlots not forwarded", name)
			}
		}
		if w.Kmax() != inner.Kmax() {
			t.Errorf("%s: Kmax %d, inner %d", name, w.Kmax(), inner.Kmax())
		}
	}
}

type nopRemote struct{}

func (nopRemote) ProcessBatch(_ string, _ []engine.RemoteItem, done func(engine.RemoteResult, error)) error {
	done(engine.RemoteResult{}, nil)
	return nil
}

func TestRemoteWrapperIsStablePerMachineAndTimes(t *testing.T) {
	a, b := &nopRemote{}, &nopRemote{}
	inner := map[int]engine.RemoteExecutor{1: a, 2: b}
	var st remoteStats
	rm := &remotes{byID: map[int]*timedRemote{}, inner: func(m int) engine.RemoteExecutor { return inner[m] }, st: &st}
	if rm.get(1) != rm.get(1) {
		t.Fatal("two wrappers for one machine: BindExecutor would rebind every pass")
	}
	if rm.get(1) == rm.get(2) {
		t.Fatal("machines 1 and 2 share a wrapper")
	}
	if rm.get(3) != nil {
		t.Fatal("a machine without a transport must resolve to nil (bind local)")
	}
	called := false
	if err := rm.get(2).ProcessBatch("count", make([]engine.RemoteItem, 3), func(engine.RemoteResult, error) { called = true }); err != nil {
		t.Fatal(err)
	}
	if !called || st.rtt.Count() != 1 || st.items.mean() != 3 {
		t.Fatalf("done forwarded %v, %d rtt samples, %v items/batch", called, st.rtt.Count(), st.items.mean())
	}
}
