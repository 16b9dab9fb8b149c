// Command perfbench is the repository benchmark. It drives the planner
// and simulator through three workloads from one process and prints,
// as its last line, one JSON result:
//
//	bash perfbench/run.sh --workload plan-refine --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it measures end-to-end metrics with tracing off. With
// --trace 1 it runs the workload sequentially, records spans around
// every call into a layer, prints a per-layer self-time table, writes
// the spans as a Chrome trace under .perfbench/trace/, and reports the
// per-layer metrics. Every run checks the outputs it measures and
// exits non-zero when a check fails. NOTES.md explains the workloads
// and what each metric should predict.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// endToEnd lists the metrics of an untraced run, with units. Every
// workload reports every one; "op" is the workload's unit of work (one
// cold plan, one search pass over both bases, one request).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"sim_samples_per_s", "samples/s"},
	{"sim_ttf_s", "sim_s"},
}

// perLayer lists the metrics of a traced run. Counts and _ms totals
// are per op; a metric a workload never exercises reads 0.
var perLayer = []metricDef{
	{"runner.partition_ms", "ms"},
	{"runner.build_ms", "ms"},
	{"runner.plan_ms", "ms"},
	{"runner.apply_ms", "ms"},
	{"runner.execute_ms", "ms"},
	{"runner.plan_cache_hits", "count"},
	{"runner.plan_computes", "count"},
	{"pipeline.build_calls", "count"},
	{"pipeline.build_ms", "ms"},
	{"profiler.collect_ms", "ms"},
	{"mapping.search_ms", "ms"},
	{"plan.compute_ms", "ms"},
	{"plan.compute_self_ms", "ms"},
	{"plan.emulations", "count"},
	{"plan.emulation_ms", "ms"},
	{"plan.apply_ms", "ms"},
	{"plan.rebase_ms", "ms"},
	{"exec.run_ms", "ms"},
	{"exec.sim_events", "count"},
	{"sim.events_per_s", "1/s"},
	{"search.expanded", "count"},
	{"search.pruned", "count"},
	{"search.memo_hits", "count"},
	{"search.skipped", "count"},
	{"search.avoided_ratio", "ratio"},
	{"search.ms_per_expanded", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.response_kib", "KiB"},
	{"serve.rejected", "count"},
	{"host.alloc_mib", "MiB"},
	{"host.gc_cycles", "count"},
	{"trace.overhead_ms", "ms"},
	{"trace.coverage_pct", "%"},
}

type metricDef struct{ name, unit string }

// loadThreads is the number of threads that generate a workload's load:
// autosearch's search workers and serve-replay's clients. On a host of
// few shared cores one thread leaves a core to the Go runtime and the
// daemon; interleaved runs with two spread two to three times wider,
// because every wave then waits for whichever core the host slowed.
const loadThreads = 1

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"plan-refine":  planRefine,
	"autosearch":   autosearch,
	"serve-replay": serveReplay,
}

// bench is the state of one run: the flags, the counters every
// workload fills in, and the metrics it reports.
type bench struct {
	name    string
	seed    int64
	seconds time.Duration
	trace   bool
	// workers bounds planner and daemon concurrency in the untraced
	// run; the traced run is sequential so its spans nest.
	workers int
	log     io.Writer

	attempted, failed int
	failures          map[string]int
	checkErrs         []string
	digests           map[string]bool
	metrics           map[string]float64
	// rssPeaks holds the peak RSS of each measured window (an op, or a
	// deck of requests); rssOn is set while windows are being recorded.
	rssPeaks []float64
	rssOn    bool
	tr       *tracer
}

// failOp counts a failed operation under its reason.
func (b *bench) failOp(reason string) {
	b.failed++
	b.failures[reason]++
}

// checkf records an output-check failure.
func (b *bench) checkf(format string, args ...any) {
	if len(b.checkErrs) < 20 {
		b.checkErrs = append(b.checkErrs, fmt.Sprintf(format, args...))
	}
}

// noteDigest records an op's determinism digest; every op of a run
// must produce the same one.
func (b *bench) noteDigest(d string) { b.digests[d] = true }

// setup runs fn n times and reports the median as setup_s. Each call
// must leave the workload ready to measure, replacing what the
// previous call built.
func (b *bench) setup(n int, fn func() error) error {
	var ds []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	b.metrics["setup_s"] = median(ds)
	return nil
}

// rssStart opens the first peak-RSS window of the measured phase,
// leaving set-up's peak out of it.
func (b *bench) rssStart() { b.rssOn = resetPeakRSS() }

// rssMark closes the current peak-RSS window, recording its peak, and
// opens the next one.
func (b *bench) rssMark() {
	if b.rssOn {
		b.rssPeaks = append(b.rssPeaks, peakRSSMiB())
		b.rssOn = resetPeakRSS()
	}
}

// loop calls op in whole rounds of round calls, at least one round,
// until the run's measuring time is used up, and returns the wall time
// it took.
func (b *bench) loop(round int, op func(i int) error) (time.Duration, error) {
	b.rssStart()
	t0 := time.Now()
	for i := 0; i%round != 0 || i == 0 || time.Since(t0) < b.seconds; i++ {
		if err := op(i); err != nil {
			return 0, err
		}
		b.rssMark()
	}
	return time.Since(t0), nil
}

// opLatencies fills the latency and throughput metrics from the wall
// times of the ops that did not fail.
func (b *bench) opLatencies(lat []float64, wall time.Duration) {
	b.metrics["op_p50_ms"] = median(lat)
	b.metrics["op_p90_ms"] = percentile(lat, 0.9)
	b.metrics["ops_per_s"] = float64(len(lat)) / wall.Seconds()
	fmt.Fprintf(b.log, "op latency ms: n=%d min %.1f p25 %.1f p50 %.1f p75 %.1f max %.1f\n", len(lat),
		percentile(lat, 0), percentile(lat, 0.25), median(lat), percentile(lat, 0.75), percentile(lat, 1))
}

// finishTrace fills the trace-wide per-layer metrics and prints the
// self-time table. wall is the traced ops' total wall time.
func (b *bench) finishTrace(wall time.Duration, ops int, overhead time.Duration) {
	self := b.tr.layerSelf()
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	b.metrics["trace.overhead_ms"] = ms(overhead)
	b.metrics["trace.coverage_pct"] = 100 * float64(sum) / float64(wall)
	fmt.Fprintf(b.log, "per-layer self time over %d traced op(s); tracing overhead %.1f ms/op\n", ops, ms(overhead))
	writeLayerTable(b.log, self, wall, ops)
	path := fmt.Sprintf(".perfbench/trace/%s-seed%d.json", b.name, b.seed)
	if err := b.tr.writeChrome(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
	} else {
		fmt.Fprintf(b.log, "chrome trace: %s (%d spans)\n", path, len(b.tr.spans))
	}
}

// allocMeter accumulates Go heap counters over the untraced ops of a
// traced run.
type allocMeter struct {
	start allocSnapshot
	bytes uint64
	gcs   uint32
	ops   int
}

// heapBegin and heapEnd bracket one untraced op of a traced run; an
// untraced run skips them, since reading the counters stops the world.
func (b *bench) heapBegin(m *allocMeter) {
	if b.trace {
		m.start = readAlloc()
	}
}

func (b *bench) heapEnd(m *allocMeter) {
	if b.trace {
		a := readAlloc()
		m.bytes += a.bytes - m.start.bytes
		m.gcs += a.gcs - m.start.gcs
		m.ops++
	}
}

// hostMetrics reports host.* as heap allocation and GC cycles per op.
func (b *bench) hostMetrics(m *allocMeter) {
	if m.ops > 0 {
		b.metrics["host.alloc_mib"] = float64(m.bytes) / (1 << 20) / float64(m.ops)
		b.metrics["host.gc_cycles"] = float64(m.gcs) / float64(m.ops)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: plan-refine, autosearch or serve-replay")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 25, "measuring time per run")
	traced := fs.Int("trace", 0, "1 runs the traced, per-layer variant")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		slices.Sort(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	b := &bench{
		name: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traced == 1, workers: min(2, runtime.NumCPU()), log: stdout,
		failures: map[string]int{}, digests: map[string]bool{}, metrics: map[string]float64{},
	}
	if b.trace {
		b.workers = 1
		b.tr = newTracer()
	}
	host, _ := json.Marshal(hostBlock())
	fmt.Fprintf(stdout, "host %s\n", host)
	if err := drive(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.name, err)
		return 1
	}
	// A process-wide peak is one draw from GC timing; the median over
	// the measured windows is the steadier figure.
	if len(b.rssPeaks) > 0 {
		b.metrics["peak_rss_mib"] = median(b.rssPeaks)
		fmt.Fprintf(stdout, "peak_rss_mib: median of %d per-window peaks, process peak %.1f MiB\n", len(b.rssPeaks), peakRSSMiB())
	} else {
		b.metrics["peak_rss_mib"] = peakRSSMiB()
		fmt.Fprintf(stdout, "peak_rss_mib: process peak (the peak counter cannot be reset here)\n")
	}
	return b.report(stdout)
}

// report prints the digest, failures, check results and the final
// JSON line, and returns the exit code.
func (b *bench) report(w io.Writer) int {
	digests := make([]string, 0, len(b.digests))
	for d := range b.digests {
		digests = append(digests, d)
	}
	slices.Sort(digests)
	if len(digests) != 1 {
		b.checkf("determinism: %d distinct digests across ops", len(digests))
	}
	fmt.Fprintf(w, "digest %s sha256:%s\n", b.name, strings.Join(digests, ","))
	fmt.Fprintf(w, "ops attempted %d, failed %d (%.1f%%)\n", b.attempted, b.failed, 100*float64(b.failed)/float64(max(1, b.attempted)))
	reasons := make([]string, 0, len(b.failures))
	for r := range b.failures {
		reasons = append(reasons, r)
	}
	slices.Sort(reasons)
	for _, r := range reasons {
		fmt.Fprintf(w, "  failed x%d: %s\n", b.failures[r], r)
	}
	for _, e := range b.checkErrs {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", e)
	}
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	res := result{Correct: len(b.checkErrs) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v := b.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			fmt.Fprintf(w, "CHECK FAILED: metric %s is not finite\n", d.name)
			v = 0
		}
		res.Metrics[d.name] = metricOut{v, d.unit}
		fmt.Fprintf(w, "metric %-24s %14.4f %s\n", d.name, v, d.unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}
