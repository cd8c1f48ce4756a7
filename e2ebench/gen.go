package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drs-repro/drs/internal/ingest"
)

// genConfig parameterizes the open-loop load generator.
type genConfig struct {
	addr  string
	conns int
	rate  float64 // total offered records/s over all connections
	seed  int64
	// start is the schedule epoch; records due before measureFrom or at
	// or after measureTo are sent but not sampled.
	start, measureFrom, measureTo time.Time
	// stop ends the schedule: no record due at or after it is sent, and
	// none is sent once the clock reaches it.
	stop time.Time
	// fromSend times and bins each record from its send time rather than
	// its due time: a saturated run's writer trails the schedule, so due
	// times would make its latencies grow with the run's length.
	fromSend bool
	// window bounds the records a connection has written but not yet
	// seen answered.
	window int
	// maxPerConn bounds the records one connection can schedule.
	maxPerConn int
}

// pending is one written record awaiting its reply.
type pending struct {
	origin int64  // due or send time, the start of its latencies
	idx    uint32 // index in the connection's schedule (part of the record id)
	key    uint8
}

// genConn is one connection's writer/reader pair.
type genConn struct {
	g      *generator
	idx    int
	conn   net.Conn
	pend   []pending
	pubd   atomic.Uint64 // records published to the reader
	replyd atomic.Uint64 // replies read
	room   chan struct{} // the reader's wake-up for a writer at a full window
	sent   uint64        // writer-side count of records written
	acked  *bitset       // acked record indices of this connection
}

// generator drives the open loop and books what it saw.
type generator struct {
	cfg   genConfig
	conns []*genConn

	sent          atomic.Int64   // records written
	sentBins      []atomic.Int64 // written, per window interval, by origin
	binNS         int64
	acks, nacks   atomic.Int64
	transportErrs atomic.Int64
	ackedKeys     [numKeys]atomic.Int64
	ackLat        Hist // origin -> reply, records whose origin is in the window
	late          Hist // send lateness of records due in the window
	wg            sync.WaitGroup
	errMu         sync.Mutex
	firstErr      error
}

// dialGenerator opens the connections and sends their hello frames;
// start then runs the schedule. acked receives, per connection, the
// indices the front door acknowledged.
func dialGenerator(cfg genConfig, acked []*bitset) (*generator, error) {
	g := &generator{cfg: cfg}
	for i := 0; i < cfg.conns; i++ {
		c, err := net.Dial("tcp", cfg.addr)
		if err != nil {
			g.closeConns()
			return nil, err
		}
		// The pending ring carries every written record from the writer
		// to the reply reader, which matches the k-th reply to the k-th
		// written record (the server answers in order).
		ring := 1
		for ring <= cfg.window {
			ring <<= 1
		}
		g.conns = append(g.conns, &genConn{g: g, idx: i, conn: c,
			pend: make([]pending, ring), room: make(chan struct{}, 1), acked: acked[i]})
		if err := writeFrame(c, []byte(fmt.Sprintf("gen-%d", i))); err != nil {
			g.closeConns()
			return nil, err
		}
	}
	return g, nil
}

// start runs the schedule from epoch: records whose origin (due or send
// time) falls in [from, to) are sampled and counted per interval of the
// window cut into bins; none due at or after stop is sent.
func (g *generator) start(epoch, from, to, stop time.Time, bins int) {
	g.cfg.start, g.cfg.measureFrom, g.cfg.measureTo, g.cfg.stop = epoch, from, to, stop
	g.sentBins = make([]atomic.Int64, bins)
	g.binNS = to.Sub(from).Nanoseconds() / int64(bins)
	for _, gc := range g.conns {
		g.wg.Add(2)
		go gc.write()
		go gc.read()
	}
}

// backlogged reports whether every connection has a record written and
// not yet answered: the front door has work waiting on each of them.
func (g *generator) backlogged() bool {
	for _, gc := range g.conns {
		if gc.pubd.Load()&^writerDone <= gc.replyd.Load() {
			return false
		}
	}
	return true
}

func (g *generator) closeConns() {
	for _, gc := range g.conns {
		gc.conn.Close()
	}
}

func (g *generator) fail(err error) {
	g.transportErrs.Add(1)
	g.errMu.Lock()
	if g.firstErr == nil {
		g.firstErr = err
	}
	g.errMu.Unlock()
}

// wait blocks until every written record has its reply (or timeout), then
// closes the connections.
func (g *generator) wait(timeout time.Duration) error {
	done := make(chan struct{})
	go func() { g.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-time.After(timeout):
		err = errors.New("generator: replies still outstanding at the deadline")
		g.fail(err)
	}
	g.closeConns()
	<-done
	return err
}

func writeFrame(w io.Writer, p []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(p)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(p)
	return err
}

// write runs the connection's schedule: every record due by now is
// framed into the buffer, the buffer is flushed before sleeping until the
// next due time, and lateness is booked against the due time. At the end
// it half-closes the connection, so the server answers what is left and
// then closes, which ends the reader.
func (gc *genConn) write() {
	defer gc.g.wg.Done()
	g := gc.g
	cfg := g.cfg
	sched := newSchedule(cfg.seed, gc.idx, cfg.rate/float64(cfg.conns))
	bw := bufio.NewWriterSize(gc.conn, 16<<10)
	flush := func() bool {
		if err := bw.Flush(); err != nil {
			g.fail(err)
			return false
		}
		return true
	}
	defer func() {
		gc.pubd.Add(writerDone)
		if flush() {
			if err := gc.conn.(*net.TCPConn).CloseWrite(); err != nil {
				g.fail(err)
			}
		}
	}()
	epoch := cfg.start.UnixNano()
	from, to, stop := cfg.measureFrom.UnixNano(), cfg.measureTo.UnixNano(), cfg.stop.UnixNano()
	var frame [4 + recSize]byte
	binary.BigEndian.PutUint32(frame[:4], recSize)
	mask := uint64(len(gc.pend) - 1)
	window := uint64(cfg.window)
	now := time.Now().UnixNano()
	for idx := uint64(0); ; idx++ {
		off, key := sched.next()
		due := epoch + off
		if due >= stop {
			return
		}
		if int(idx) >= cfg.maxPerConn {
			g.fail(fmt.Errorf("generator: connection %d exceeded %d records", gc.idx, cfg.maxPerConn))
			return
		}
		if due > now {
			if !flush() {
				return
			}
			if d := due - time.Now().UnixNano(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			now = time.Now().UnixNano()
		}
		// Wait for room in the in-flight window, with the buffered
		// records on the wire.
		for gc.sent-gc.replyd.Load() >= window {
			if !flush() {
				return
			}
			if _, ok := <-gc.room; !ok {
				return // the reader has stopped
			}
			now = time.Now().UnixNano()
		}
		if now >= stop {
			return
		}
		if due >= from && due < to {
			g.late.Add(now - due)
		}
		send := time.Now().UnixNano()
		origin := due
		if cfg.fromSend {
			origin = send
		}
		if bin := binIndex(origin, from, to, g.binNS, len(g.sentBins)); bin >= 0 {
			g.sentBins[bin].Add(1)
		}
		g.sent.Add(1)
		// Publish before writing: a reply can only follow the write.
		gc.pend[gc.sent&mask] = pending{origin: origin, idx: uint32(idx), key: key}
		gc.sent++
		gc.pubd.Store(gc.sent)
		encodeRecord(frame[4:], due, send, uint64(gc.idx)<<idShift|idx, key)
		if _, err := bw.Write(frame[:]); err != nil {
			g.fail(err)
			return
		}
		if bw.Buffered() == 0 { // the write flushed: re-read the clock
			now = time.Now().UnixNano()
		}
	}
}

// writerDone is the flag bit the writer sets in pubd when it is done.
const writerDone = 1 << 62

// read matches replies to written records in order until every record
// the finished writer published has its reply.
func (gc *genConn) read() {
	defer gc.g.wg.Done()
	defer close(gc.room)
	g := gc.g
	from, to := g.cfg.measureFrom.UnixNano(), g.cfg.measureTo.UnixNano()
	br := bufio.NewReaderSize(gc.conn, 16<<10)
	mask := uint64(len(gc.pend) - 1)
	var reply [5]byte
	for seen := uint64(0); ; seen++ {
		if p := gc.pubd.Load(); p&writerDone != 0 && seen >= p&^writerDone {
			return
		}
		if _, err := io.ReadFull(br, reply[:]); err != nil {
			if p := gc.pubd.Load(); p&writerDone != 0 && seen >= p&^writerDone {
				return // the server closed after the last reply
			}
			g.fail(err)
			return
		}
		now := time.Now().UnixNano()
		pd := gc.pend[seen&mask]
		switch reply[0] {
		case ingest.TCPAck:
			g.acks.Add(1)
			g.ackedKeys[pd.key].Add(1)
			gc.acked.set(uint64(pd.idx))
			if pd.origin >= from && pd.origin < to {
				g.ackLat.Add(now - pd.origin)
			}
		case ingest.TCPNack:
			g.nacks.Add(1)
		default:
			g.fail(fmt.Errorf("generator: unknown reply status %#x", reply[0]))
			return
		}
		gc.replyd.Store(seen + 1)
		select {
		case gc.room <- struct{}{}:
		default:
		}
	}
}
