// Command e2ebench is the end-to-end benchmark of the DRS serving stack.
// It assembles the real stack in one process (WAL, admission gate and
// TCP front door, engine, loopback worker daemons, scheduler lease,
// supervisor and controller), drives a seeded workload through it,
// times every layer from outside through wrappers around the stack's
// public seams, audits the results, and prints every metric by name.
// The last line of standard output is a JSON summary. See METRICS.md.
//
//	go run . --workload firehose|replay|tmax --seed N --seconds S --trace 0|1
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// metricDef declares one reported metric.
type metricDef struct{ name, unit string }

// endToEnd metrics come from untraced runs (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "rec/s"},
	{"sojourn_p50_ms", "ms"},
	{"sojourn_p99_ms", "ms"},
	{"tmax_hit_frac", "frac"},
	{"executors_mean", "count"},
	{"rss_peak_mb", "MiB"},
}

// perLayer metrics come from --trace 1: an untraced pass for the layer
// timings, then a traced pass for the trace.* split.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"fail_frac", "frac"},
		{"host.steal_frac", "frac"},
		{"host.calm_slices", "count"},
		{"cpu.us_per_record", "us"},
		{"sojourn_samples", "count"},
		{"gen.late_p50_ms", "ms"},
		{"gen.late_p99_ms", "ms"},
		{"gen.backlogged_frac", "frac"},
		{"ingest.ack_p50_ms", "ms"},
		{"ingest.ack_p99_ms", "ms"},
		{"ingest.ring_depth_mean", "count"},
		{"ingest.shed_overload", "count"},
		{"ingest.shed_backlog", "count"},
		{"ingest.replay_s", "s"},
		{"wal.open_s", "s"},
		{"wal.recovered_records", "count"},
		{"wal.segments", "count"},
		{"engine.spout_wait_frac", "frac"},
		{"engine.spout_batch_mean", "count"},
	}
	for _, b := range boltNames {
		d = append(d, metricDef{"engine.service_us." + b, "us"},
			metricDef{"engine.queue_wait_ms." + b, "ms"},
			metricDef{"engine.backlog_mean." + b, "count"})
	}
	return append(d,
		metricDef{"engine.root_sojourn_ms", "ms"},
		metricDef{"engine.rebalances", "count"},
		metricDef{"engine.rebalance_ms", "ms"},
		metricDef{"worker.batch_rtt_us_p50", "us"},
		metricDef{"worker.batch_rtt_us_p99", "us"},
		metricDef{"worker.batch_items_mean", "count"},
		metricDef{"worker.tuples", "count"},
		metricDef{"loop.rounds", "count"},
		metricDef{"loop.actions", "count"},
		metricDef{"loop.converge_s", "s"},
		metricDef{"loop.drain_us", "us"},
		metricDef{"core.step_us", "us"},
		metricDef{"core.predicted_sojourn_ms", "ms"},
		metricDef{"core.model_residual", "ratio"},
		metricDef{"cluster.slots_granted_mean", "count"},
		metricDef{"trace.gate_us", "us"},
		metricDef{"trace.wal_us", "us"},
		metricDef{"trace.queue_us", "us"},
		metricDef{"trace.service_us", "us"},
		metricDef{"trace.shuttle_us", "us"},
		metricDef{"trace.sojourn_us", "us"},
		metricDef{"trace.traces", "count"},
		metricDef{"trace.incomplete", "count"},
		metricDef{"trace.spans_dropped", "count"},
		metricDef{"trace.overhead_frac", "frac"},
	)
}()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "firehose, replay or tmax")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1: per-layer metrics and a traced pass; 0: end-to-end metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for scratch logs, traces and result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	var pass func(*traceAgg) (*result, error)
	switch o.workload {
	case "firehose":
		pass = func(t *traceAgg) (*result, error) { return runLive(o, firehose(), t) }
	case "tmax":
		pass = func(t *traceAgg) (*result, error) { return runLive(o, tmaxScenario(o.seed), t) }
	case "replay":
		pass = func(t *traceAgg) (*result, error) { return runReplay(o, t) }
	default:
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want firehose, replay or tmax)\n", o.workload)
		return 2
	}
	defer os.RemoveAll(filepath.Join(o.out, "tmp"))

	cpu0 := readCPUStat()
	res, err := pass(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	res.layer["host.steal_frac"] = stealShare(cpu0, readCPUStat())
	res.e2e["rss_peak_mb"] = peakRSSMiB()
	res.layer["fail_frac"] = float64(res.failed) / float64(res.attempted)
	report, defs := res.e2e, endToEnd
	if o.trace {
		agg := newTraceAgg()
		traced, err := pass(agg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: traced pass:", err)
			return 1
		}
		if err := agg.finish(res.layer); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: tracer:", err)
			return 1
		}
		res.layer["trace.overhead_frac"] = 1 - traced.e2e["throughput_rps"]/res.e2e["throughput_rps"]
		res.attempted += traced.attempted
		res.failed += traced.failed
		res.audit = addAudit(res.audit, traced.audit)
		res.problems = append(res.problems, traced.problems...)
		res.layer["fail_frac"] = float64(res.failed) / float64(res.attempted)
		if agg.n == 0 {
			res.invalid("traced pass completed no trace")
		}
		if agg.telescopeViolations != 0 {
			res.invalid("%d complete traces break queue + service + shuttle == sojourn", agg.telescopeViolations)
		}
		name := fmt.Sprintf("%s-seed%d.ndjson", o.workload, o.seed)
		if err := agg.write(filepath.Join(o.out, "traces", name)); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: writing traces:", err)
			return 1
		}
		report, defs = res.layer, perLayer
	}

	host := hostStanza()
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	fmt.Fprintf(w, "e2ebench %s seed %d, %d s measured, trace %d\n", o.workload, o.seed, o.seconds, trace)
	for _, k := range sortedKeys(host) {
		fmt.Fprintf(w, "host.%s: %s\n", k, host[k])
	}
	printMetrics(w, endToEnd, res.e2e)
	printMetrics(w, perLayer, res.layer)
	fmt.Fprintf(w, "audit: %s; %d attempted, %d failed (fail_frac %g)\n",
		res.audit, res.attempted, res.failed, float64(res.failed)/float64(res.attempted))
	for _, p := range res.problems {
		fmt.Fprintf(w, "INVALID: %s\n", p)
	}
	if err := writeResultFile(o, host, res); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: writing result file:", err)
	}

	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]metricOut{}}
	for _, d := range defs {
		summary.Metrics[d.name] = metricOut{report[d.name], d.unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	return 0
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		if v, ok := vals[d.name]; ok {
			fmt.Fprintf(w, "%-32s %14.6g %s\n", d.name, v, d.unit)
		}
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeResultFile stores the whole run — host, every metric, audit — as
// JSON beside the traces.
func writeResultFile(o options, host map[string]string, res *result) error {
	dir := filepath.Join(o.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	doc := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": trace,
		"host": host, "end_to_end": res.e2e, "per_layer": res.layer, "series": res.series,
		"attempted": res.attempted, "failed": res.failed, "audit": res.audit,
		"problems": res.problems, "correct": res.correct(),
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// hostStanza describes the machine and the code under test.
func hostStanza() map[string]string {
	h := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        "unknown",
		"kernel":     "unknown",
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				h["commit"] = kv.Value
			case "vcs.modified":
				h["modified"] = kv.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h["kernel"] = strings.TrimSpace(string(b))
	}
	return h
}
