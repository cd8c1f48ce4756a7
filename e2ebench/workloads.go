package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/wal"
)

// Workload parameters. Tmax is the paper scenario's latency target; the
// other workloads book their Tmax verdicts against the same figure.
const (
	tmaxSeconds = 0.030
	setupReps   = 60

	firehoseRate   = 250_000.0
	firehoseWarmup = 2 * time.Second
	firehoseWindow = 512
	// minBacklogged is the share of the firehose window's samples in
	// which every connection must have had a record waiting. A vCPU the
	// host deschedules for a few ms can leave a connection empty for a
	// sample; a stack that keeps up with its load leaves them empty in
	// most samples.
	minBacklogged = 0.98

	tmaxRate     = 600.0
	tmaxMuFirst  = 400.0
	tmaxMuSecond = 300.0
	tmaxWarmup   = 8 * time.Second
	tmaxEpisodes = 3
	maxLateP50   = 2e6 // ns: the tmax generator's median lateness limit

	replayRecords   = 400_000
	replayMinRounds = 3
)

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

// result is one pass over a workload.
type result struct {
	attempted, failed int64
	audit             auditResult
	problems          []string // validity failures (the run does not count)
	e2e, layer        map[string]float64
	// series keeps, per end-to-end metric, the per-interval (or per-round)
	// values whose median it reports, in time order.
	series map[string][]float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, series: map[string][]float64{}}
}

// summarize reports the median of xs over the picked slices as the
// end-to-end metric name, keeping every slice's value in the series.
func (r *result) summarize(name string, xs []float64, picked []int) {
	r.series[name] = append([]float64(nil), xs...)
	r.e2e[name] = pickedMedian(xs, picked)
}

// pickedMedian is the median of xs over the picked indices.
func pickedMedian(xs []float64, picked []int) float64 {
	sel := make([]float64, 0, len(picked))
	for _, i := range picked {
		sel = append(sel, xs[i])
	}
	return median(sel)
}

// calm picks the slices (or rounds) the end-to-end medians run over
// and marks the run invalid when the host stole too much CPU in them.
func (r *result) calm(steal []float64) []int {
	picked := calmSlices(steal)
	r.series["host.steal_frac"] = steal
	r.layer["host.calm_slices"] = float64(len(picked))
	for _, i := range picked {
		if steal[i] > calmSteal {
			r.invalid("the host stole over %.0f%% of the CPU in more than half the slices", calmSteal*100)
			break
		}
	}
	return picked
}

func (r *result) invalid(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// tempDir makes a fresh directory under the output directory.
func tempDir(o options, pattern string) (string, error) {
	base := filepath.Join(o.out, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, pattern)
}

// liveSpec is a workload driven over the TCP front door.
type liveSpec struct {
	rate   float64
	warmup time.Duration
	window int
	// interval is the length of the window slices the end-to-end
	// figures take their median over.
	interval time.Duration
	// episodes splits the measured seconds over this many cold starts.
	episodes int
	// stack fills the assembly for a run state (topology closures
	// capture it).
	stack func(rs *runState) stackSpec
	// saturated demands that every connection had a record waiting at
	// the front door through the window, and times records from their
	// send (firehose); otherwise records are timed from their due time
	// and the generator must have kept to its schedule.
	saturated bool
}

func firehose() liveSpec {
	return liveSpec{
		rate:      firehoseRate,
		warmup:    firehoseWarmup,
		interval:  time.Second,
		saturated: true,
		window:    firehoseWindow,
		stack: func(rs *runState) stackSpec {
			rs.sampleEvery = 16
			return stackSpec{
				topology:    countChain(rs),
				workers:     2,
				workerBolts: map[string]engine.BoltFactory{"count": tallyBolt(rs, "count", 0, 0)},
				localSlots:  1,
				frontDoor:   true,
			}
		},
	}
}

func tmaxScenario(seed int64) liveSpec {
	return liveSpec{
		rate:     tmaxRate,
		warmup:   tmaxWarmup,
		episodes: tmaxEpisodes,
		interval: 2500 * time.Millisecond,
		window:   4096,
		stack: func(rs *runState) stackSpec {
			const tasks = 24
			return stackSpec{
				tmax: tmaxSeconds,
				topology: func(b *engine.TopologyBuilder) ([]string, map[string]int) {
					b.Bolt("extract", tasks, parseBolt(rs, "extract", tmaxMuFirst, seed*31+1)).
						Bolt("match", tasks, tallyBolt(rs, "match", tmaxMuSecond, seed*31+2)).
						Bolt("sink", tasks, sinkBolt(rs)).
						Shuffle("ingest", "extract").
						Shuffle("extract", "match").
						Shuffle("match", "sink")
					return []string{"extract", "match", "sink"}, map[string]int{"extract": 1, "match": 1, "sink": 1}
				},
				supervise:       true,
				slotsPerMachine: 4,
				maxMachines:     6,
				frontDoor:       true,
			}
		},
	}
}

// countChain is the firehose and replay topology: parse → count (fields
// grouped by key) → sink at 1 + 2 + 1 executors.
func countChain(rs *runState) func(b *engine.TopologyBuilder) ([]string, map[string]int) {
	return func(b *engine.TopologyBuilder) ([]string, map[string]int) {
		b.Bolt("parse", 8, parseBolt(rs, "parse", 0, 0)).
			Bolt("count", 8, tallyBolt(rs, "count", 0, 0)).
			Bolt("sink", 8, sinkBolt(rs)).
			Shuffle("ingest", "parse").
			Fields("parse", "count", func(v engine.Values) uint64 { return uint64(v[0].(int64)) }).
			Shuffle("count", "sink")
		return []string{"parse", "count", "sink"}, map[string]int{"parse": 1, "count": 2, "sink": 1}
	}
}

// window captures cumulative counters at the start and end of the
// measured window.
type window struct {
	at                  time.Time
	sunk                int64
	waitNS, pops, items int64
	done, nanos         int64
}

func (s *stack) capture(rs *runState) window {
	w := window{at: time.Now(), sunk: rs.led.sunk.Load(),
		waitNS: s.src.waitNS.Load(), pops: s.src.pops.Load(), items: s.src.items.Load()}
	_, w.done, w.nanos = s.run.RootTotals()
	return w
}

// readings are one run's per-slice readings, in time order.
type readings struct {
	steal, tput, cpu, p50, p99, hit []float64
}

func (a *readings) add(b readings) {
	a.steal = append(a.steal, b.steal...)
	a.tput = append(a.tput, b.tput...)
	a.cpu = append(a.cpu, b.cpu...)
	a.p50 = append(a.p50, b.p50...)
	a.p99 = append(a.p99, b.p99...)
	a.hit = append(a.hit, b.hit...)
}

// runLive drives a live workload as ls.episodes independent episodes,
// each from a cold stack, splitting the measured seconds between them:
// the control loop settles a little differently every time, so one
// episode is one sample of it. The end-to-end figures are medians over
// the calm slices of all episodes; per-layer readings come from the last
// episode.
func runLive(o options, ls liveSpec, agg *traceAgg) (*result, error) {
	res := newResult()
	episodes := max(1, ls.episodes)
	seconds := max(1, o.seconds/episodes)
	var all readings
	var setups []float64
	var executors, samples float64
	for e := 0; e < episodes; e++ {
		reps := 1
		if e == 0 {
			reps = setupReps
		}
		ep, sl, epSetups, err := runEpisode(o, ls, agg, seconds, reps)
		if err != nil {
			return nil, err
		}
		if e == 0 {
			setups = epSetups
		}
		all.add(sl)
		res.attempted += ep.attempted
		res.failed += ep.failed
		res.audit = addAudit(res.audit, ep.audit)
		res.problems = append(res.problems, ep.problems...)
		res.layer = ep.layer
		executors += ep.e2e["executors_mean"] / float64(episodes)
		samples += ep.layer["sojourn_samples"]
	}
	L := res.layer
	L["sojourn_samples"] = samples
	picked := res.calm(all.steal)
	L["cpu.us_per_record"] = pickedMedian(all.cpu, picked)
	res.summarize("setup_s", setups, allIndices(len(setups)))
	res.summarize("throughput_rps", all.tput, picked)
	res.summarize("sojourn_p50_ms", all.p50, picked)
	res.summarize("sojourn_p99_ms", all.p99, picked)
	res.summarize("tmax_hit_frac", all.hit, picked)
	res.e2e["executors_mean"] = executors
	return res, nil
}

// runEpisode sets the stack up reps times (keeping the last), drives the
// open loop over the front door for seconds, and audits the outcome.
func runEpisode(o options, ls liveSpec, agg *traceAgg, seconds, reps int) (*result, readings, []float64, error) {
	res := newResult()
	L := res.layer
	var sl readings
	conns := runtime.NumCPU()
	if conns > 2 {
		conns = 2
	}
	span := ls.warmup + time.Duration(seconds)*time.Second
	perConn := int(ls.rate/float64(conns)*span.Seconds()*1.25) + 4096
	var (
		setups []float64
		st     *stack
		g      *generator
		rs     *runState
		dir    string
	)
	for rep := 0; rep < reps; rep++ {
		var err error
		if dir, err = tempDir(o, "wal-"); err != nil {
			return nil, sl, nil, err
		}
		led := newLedger(conns, perConn)
		rs = newRunState(led, boltNames...)
		rs.tmax = int64(tmaxSeconds * 1e9)
		rs.fromSend = ls.saturated
		spec := ls.stack(rs)
		spec.walDir = dir
		if rep == reps-1 {
			spec.tracer = agg.tracer()
		}
		// Every set-up starts on a collected heap, as a fresh process
		// would, so no set-up pays for another's garbage.
		runtime.GC()
		t0 := time.Now()
		if st, err = startStack(spec); err != nil {
			return nil, sl, nil, err
		}
		g, err = dialGenerator(genConfig{addr: st.front.Addr().String(), conns: conns, rate: ls.rate,
			seed: o.seed, fromSend: ls.saturated, window: ls.window, maxPerConn: perConn}, led.acked)
		if err != nil {
			st.close()
			return nil, sl, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < reps-1 {
			g.closeConns()
			if err := st.close(); err != nil {
				return nil, sl, nil, err
			}
			os.RemoveAll(dir)
		}
	}
	defer os.RemoveAll(dir)
	defer func() {
		st.close()
		agg.done(st.spec.tracer)
	}()
	runtime.GC() // the throwaway setups' garbage is not the run's

	epoch := time.Now().Add(20 * time.Millisecond)
	from := epoch.Add(ls.warmup)
	to := from.Add(time.Duration(seconds) * time.Second)
	nbins := max(1, int(time.Duration(seconds)*time.Second/ls.interval))
	rs.setWindow(from.UnixNano(), to.UnixNano(), nbins)
	var check func() bool
	if ls.saturated {
		check = g.backlogged
	}
	sp := startSampler(st, from, to, check)
	var w0, w1 window
	steal := make([]float64, nbins)
	cpu := make([]time.Duration, nbins) // process CPU time per slice
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(from))
		w0 = st.capture(rs)
		prev, prevCPU := readCPUStat(), processCPU()
		for i := range steal {
			time.Sleep(time.Until(from.Add(time.Duration(int64(i+1) * rs.binNS))))
			cur, curCPU := readCPUStat(), processCPU()
			steal[i], cpu[i] = stealShare(prev, cur), curCPU-prevCPU
			prev, prevCPU = cur, curCPU
		}
		w1 = st.capture(rs)
	}()
	g.start(epoch, from, to, to, nbins)
	waitErr := g.wait(time.Until(to) + 60*time.Second)
	wg.Wait()
	n, ring, backlog, executors, granted, rejected := sp.finish()
	stats := st.gate.Stats()
	drainErr := st.drained(stats.Admitted, 30*time.Second)

	completions, _ := st.run.Completions()
	var ackedKeys [numKeys]int64
	for k := range ackedKeys {
		ackedKeys[k] = g.ackedKeys[k].Load()
	}
	res.audit = rs.led.verify(&ackedKeys, g.acks.Load(), stats.Admitted, completions)
	res.attempted = g.sent.Load()
	res.failed = g.transportErrs.Load() + res.audit.failures()
	if waitErr != nil {
		res.invalid("%v", waitErr)
	}
	if drainErr != nil {
		res.invalid("%v", drainErr)
	}
	if g.firstErr != nil {
		res.invalid("transport: %v", g.firstErr)
	}

	sl.steal = steal
	binSec := float64(rs.binNS) / 1e9
	for i := range rs.bins {
		b := &rs.bins[i]
		arrivals := float64(b.arrivals.Load())
		sl.tput = append(sl.tput, arrivals/binSec)
		sl.cpu = append(sl.cpu, float64(cpu[i].Microseconds())/max(arrivals, 1))
		sl.p50 = append(sl.p50, b.lat.Quantile(0.50)/1e6)
		sl.p99 = append(sl.p99, b.lat.Quantile(0.99)/1e6)
		sl.hit = append(sl.hit, float64(b.hits.Load())/float64(max(g.sentBins[i].Load(), 1)))
		L["sojourn_samples"] += float64(b.lat.Count())
	}
	if ls.saturated {
		throughput := median(append([]float64(nil), sl.tput...))
		backlogged := float64(n-rejected) / float64(max(n, 1))
		L["gen.backlogged_frac"] = backlogged
		if backlogged < minBacklogged {
			res.invalid("a connection had no record waiting in %d of %d samples: throughput is not a drain rate", rejected, n)
		}
		if ls.rate < 1.2*throughput {
			res.invalid("offered %.0f rec/s is not above the %.0f rec/s drain", ls.rate, throughput)
		}
	} else if p50, p99 := g.late.Quantile(0.50), g.late.Quantile(0.99); p50 > maxLateP50 || p99 > tmaxSeconds*1e9 {
		// Falling behind is systematic lag (the median) or records sent a
		// whole Tmax late; a sleep that wakes a few ms late on a shared
		// host is charged to the system's latency instead, by design.
		res.invalid("generator fell behind: lateness p50 %.2f ms, p99 %.2f ms", p50/1e6, p99/1e6)
	}
	res.e2e["executors_mean"] = executors

	L["ingest.ack_p50_ms"] = g.ackLat.Quantile(0.50) / 1e6
	L["ingest.ack_p99_ms"] = g.ackLat.Quantile(0.99) / 1e6
	L["ingest.ring_depth_mean"] = ring
	L["ingest.shed_overload"] = float64(stats.ShedOverload)
	L["ingest.shed_backlog"] = float64(stats.ShedBacklog)
	L["gen.late_p50_ms"] = g.late.Quantile(0.50) / 1e6
	L["gen.late_p99_ms"] = g.late.Quantile(0.99) / 1e6
	L["cluster.slots_granted_mean"] = granted
	st.layerMetrics(L, rs, w0, w1, backlog, epoch, from, to)
	for _, w := range st.workers {
		_, tuples := w.Counts()
		L["worker.tuples"] += float64(tuples)
	}
	return res, sl, setups, nil
}

// layerMetrics fills the per-layer readings every workload shares.
func (s *stack) layerMetrics(L map[string]float64, rs *runState, w0, w1 window, backlog map[string]float64, epoch, from, to time.Time) {
	dt := w1.at.Sub(w0.at)
	L["wal.open_s"] = s.walOpen.Seconds()
	L["wal.recovered_records"] = float64(s.recovered.Records)
	L["wal.segments"] = float64(s.log.Segments())
	if dt > 0 {
		L["engine.spout_wait_frac"] = float64(w1.waitNS-w0.waitNS) / float64(dt.Nanoseconds())
	}
	if p := w1.pops - w0.pops; p > 0 {
		L["engine.spout_batch_mean"] = float64(w1.items-w0.items) / float64(p)
	}
	if d := w1.done - w0.done; d > 0 {
		L["engine.root_sojourn_ms"] = float64(w1.nanos-w0.nanos) / float64(d) / 1e6
	}
	for _, b := range boltNames {
		st := rs.bolts[b]
		L["engine.service_us."+b] = st.svc.mean() / 1e3
		L["engine.queue_wait_ms."+b] = st.wait.mean() / 1e6
		L["engine.backlog_mean."+b] = backlog[b]
	}
	L["engine.rebalances"] = float64(s.ctl.rebalance.n.Load())
	L["engine.rebalance_ms"] = s.ctl.rebalance.mean() / 1e6
	L["worker.batch_rtt_us_p50"] = s.remote.rtt.Quantile(0.50) / 1e3
	L["worker.batch_rtt_us_p99"] = s.remote.rtt.Quantile(0.99) / 1e3
	L["worker.batch_items_mean"] = s.remote.items.mean()
	if s.sup != nil {
		L["loop.rounds"] = float64(s.sup.Rounds())
		for _, ev := range s.sup.History() {
			if ev.Applied {
				L["loop.actions"]++
				L["loop.converge_s"] = ev.At.Sub(epoch).Seconds()
			}
		}
	}
	L["loop.drain_us"] = s.ctl.drain.mean() / 1e3
	L["core.step_us"] = s.ctl.step.mean() / 1e3
	var pred, resid []float64
	s.ctl.mu.Lock()
	for _, r := range s.ctl.rounds {
		if r.at < from.UnixNano() || r.at >= to.UnixNano() {
			continue
		}
		pred = append(pred, r.predicted*1e3)
		if r.hold && r.measured > 0 {
			resid = append(resid, r.measured/r.predicted-1)
		}
	}
	s.ctl.mu.Unlock()
	L["core.predicted_sojourn_ms"] = meanOf(pred)
	L["core.model_residual"] = meanOf(resid)
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// boltNames is every harness bolt name any workload uses.
var boltNames = []string{"parse", "count", "extract", "match", "sink"}

// runReplay writes a seeded log once (untimed), then cold-boots the stack
// over it round after round until the measured time is used up: each
// round times wal.Open → AttachWAL → engine start → Replay → the last
// record at the sink, and audits exactly-once delivery of every record.
func runReplay(o options, agg *traceAgg) (*result, error) {
	res := newResult()
	dir, err := tempDir(o, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	keys, err := writeSeededLog(dir, o.seed, replayRecords)
	if err != nil {
		return nil, err
	}
	if err := readAll(dir); err != nil {
		return nil, err
	}
	var (
		setups, rates, replays []float64
		cpu                    []float64
		p50, p99, hits, steal  []float64
		rs                     *runState
		L                      = res.layer
	)
	budget := time.Duration(o.seconds) * time.Second
	began := time.Now()
	for round := 0; round < replayMinRounds || time.Since(began) < budget; round++ {
		led := newLedger(1, replayRecords)
		for i := 0; i < replayRecords; i++ {
			led.acked[0].set(uint64(i))
		}
		rs = newRunState(led, boltNames...)
		rs.sampleEvery = 16
		rs.tmax = int64(tmaxSeconds * 1e9)
		rs.setWindow(0, 1<<62, 1)
		tracer := agg.tracer()
		host0, proc0 := readCPUStat(), processCPU()
		t0 := time.Now()
		rs.boot = t0.UnixNano()
		st, err := startStack(stackSpec{
			walDir:   dir,
			topology: countChain(rs),
			tracer:   tracer,
		})
		if err != nil {
			return nil, err
		}
		tr := time.Now()
		setups = append(setups, tr.Sub(t0).Seconds())
		w0 := st.capture(rs)
		n, err := st.gate.Replay()
		replays = append(replays, time.Since(tr).Seconds())
		if err != nil || n != replayRecords {
			st.close()
			return nil, fmt.Errorf("replay re-injected %d of %d records: %v", n, replayRecords, err)
		}
		drainErr := st.drained(int64(n), 60*time.Second)
		w1 := st.capture(rs)
		steal = append(steal, stealShare(host0, readCPUStat()))
		cpu = append(cpu, float64((processCPU()-proc0).Microseconds())/replayRecords)
		last := time.Unix(0, rs.lastSink.Load())
		rates = append(rates, float64(replayRecords)/last.Sub(t0).Seconds())
		completions, _ := st.run.Completions()
		a := led.verify(&keys, replayRecords, replayRecords, completions)
		res.attempted += replayRecords
		res.failed += a.failures()
		res.audit = addAudit(res.audit, a)
		if drainErr != nil {
			res.invalid("round %d: %v", round, drainErr)
		}
		L["wal.recovered_records"] = float64(st.recovered.Records)
		if round == 0 {
			for _, k := range st.run.Allocation() {
				res.e2e["executors_mean"] += float64(k)
			}
			w1.at = last
			st.layerMetrics(L, rs, w0, w1, nil, t0, t0, last)
		}
		b := &rs.bins[0]
		p50 = append(p50, b.lat.Quantile(0.50)/1e6)
		p99 = append(p99, b.lat.Quantile(0.99)/1e6)
		hits = append(hits, float64(b.hits.Load())/float64(max(b.timed.Load(), 1)))
		L["sojourn_samples"] += float64(b.lat.Count())
		err = st.close()
		agg.done(tracer)
		if err != nil {
			return nil, err
		}
		// Every round boots on a collected heap, as a fresh process would,
		// and reads a log the page cache holds.
		runtime.GC()
		if err := readAll(dir); err != nil {
			return nil, err
		}
	}
	L["ingest.replay_s"] = median(replays)
	// Every end-to-end figure is the median over the calm rounds after
	// the first, which warms the heap and the code.
	for _, xs := range []*[]float64{&setups, &rates, &cpu, &p50, &p99, &hits, &steal} {
		*xs = (*xs)[1:]
	}
	picked := res.calm(steal)
	L["cpu.us_per_record"] = pickedMedian(cpu, picked)
	res.summarize("setup_s", setups, picked)
	res.summarize("throughput_rps", rates, picked)
	res.summarize("sojourn_p50_ms", p50, picked)
	res.summarize("sojourn_p99_ms", p99, picked)
	res.summarize("tmax_hit_frac", hits, picked)
	return res, nil
}

// readAll reads every file in dir, so that the page cache holds them.
func readAll(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func addAudit(a, b auditResult) auditResult {
	a.Lost += b.Lost
	a.Duplicated += b.Duplicated
	a.Unexpected += b.Unexpected
	a.Foreign += b.Foreign
	a.KeyMismatch += b.KeyMismatch
	a.CountMismatch += b.CountMismatch
	return a
}

// writeSeededLog fills dir with n unacked records (ids 0..n-1, seeded
// keys) and returns the per-key counts.
func writeSeededLog(dir string, seed int64, n int) (keys [numKeys]int64, err error) {
	log, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return keys, err
	}
	sched := newSchedule(seed, 0, 1)
	const chunk = 1024
	recs := make([][]byte, 0, chunk)
	backing := make([]byte, chunk*recSize)
	for i := 0; i < n; i += chunk {
		recs = recs[:0]
		for j := i; j < n && j < i+chunk; j++ {
			_, key := sched.next()
			b := backing[(j-i)*recSize : (j-i+1)*recSize]
			encodeRecord(b, 0, 0, uint64(j), key)
			keys[key]++
			recs = append(recs, b)
		}
		if err := log.AppendBatch(uint64(i)+1, recs); err != nil {
			log.Close()
			return keys, err
		}
	}
	return keys, log.Close()
}
