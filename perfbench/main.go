// Command perfbench is the repository's benchmark. It runs one workload
// against the InsightAlign program, built from the source in this
// checkout, checks the program's outputs, and prints every metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload serve-unique --seed 1 --seconds 15 --trace 0
//
// The system has three kinds of users, each waiting on something else: a
// client of the K=5 beam-search recommender waits on request latency
// (serve-unique, serve-batch); a researcher reproducing Table IV waits on
// margin-DPO alignment (offline); a design team running the Fig. 1b online
// loop waits on each propose → run-the-flow → update iteration (online).
// Each workload is described where it is implemented: serve.go,
// offline.go and online.go.
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// the benchmark's tracing off. With --trace 1 a separate run times the
// calls into each layer's public functions and seams (serve.Server.Handler,
// serve.NewBatcher/Submit, the core.Model decode and train entry points,
// core.TrainOptions.Progress, flow.Runner.StageHook/MetricsHook and the
// server's /metrics), and the result carries the per-layer metrics: each
// layer's time, its self time, the remainder no layer explains, and the
// tracing overhead. The spans are kept in memory and written to
// .bench_build/perfbench/ when the run ends. A layer a workload never
// calls reads 0 in that workload's traced result.
//
// Two areas are left out on purpose. The fleet tier (router, replicas)
// cannot show scaling on a 2-core machine, where the replicas would share
// the cores the clients use. The retrieval response cache is opt-in
// (-cache) and off by default, so the default serving path never meets it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them; an op is one /v1/recommend call, one /batch
// call, one Table IV run or one online iteration.
var endToEnd = []metricDef{
	// setup_s: set-up before timing — server start and warm-up, archive
	// build, campaign archive — the median of three set-ups in one run.
	{"setup_s", "s", "lower", 0.25},
	// latency_p50_ms: per op, from send to fully decoded response on
	// serve; table4_s and online_iter_s of the other two workloads are
	// their p50 in ms. A failed op counts as a miss.
	{"latency_p50_ms", "ms", "lower", 0.25},
	// designs_per_s: insight queries answered per second — designs
	// recommended by the server, held-out designs recommended and
	// evaluated by Table IV, iterations of the online campaign.
	{"designs_per_s", "1/s", "higher", 0.25},
	// cpu_ms_per_op: process user+system CPU per op; it shows wall time
	// bought with extra cores. The load generator shares the process.
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	// alloc_mb_per_op: bytes allocated per op (TotalAlloc delta).
	{"alloc_mb_per_op", "MB", "lower", 0.15},
}

// The timing bounds are wide because the machines this runs on are shared:
// a CPU-bound loop's speed there moved by ±25% from one second to the
// next, in stretches of several seconds. Two figures are printed but not
// gated. The p99 latency (latency_p99_ms) follows those stretches: across
// ten serve-unique runs its spread reached 0.38 of its median, wider than
// any allowed bound; the traced run keeps the tail as
// http.roundtrip_ms.p99. The peak heap (runtime.heap_peak_mb in the traced
// run) follows when the collector happens to run, and its spread, about
// 0.12 of its median, was wider than a third of any allowed bound.

// perLayer lists the per-layer metrics of the traced run, named after the
// repository's modules. Which workload exercises each, and which
// end-to-end metric it should move, is written beside the code that
// measures it (traceServe, traceOffline, traceOnline).
var perLayer = []metricDef{
	{"http.roundtrip_ms.p50", "ms", "lower", 0},
	{"http.roundtrip_ms.p99", "ms", "lower", 0},
	{"serve.handler_ms.p50", "ms", "lower", 0},
	{"serve.handler_ms.p99", "ms", "lower", 0},
	{"serve.submit_ms.p50", "ms", "lower", 0},
	{"serve.submit_ms.p99", "ms", "lower", 0},
	{"core.decode_ms.p50", "ms", "lower", 0},
	{"core.decode_ms.p99", "ms", "lower", 0},
	{"serve.json_us", "us", "lower", 0},
	{"http.self_ms", "ms", "lower", 0},
	{"serve.handler_self_ms", "ms", "lower", 0},
	{"serve.batch_wait_ms", "ms", "lower", 0},
	{"serve.decoder_calls", "1/op", "lower", 0},
	{"serve.batch_size_mean", "count", "higher", 0},
	{"serve.rejected", "count", "lower", 0},
	{"core.beam_sessions", "1/op", "lower", 0},
	{"core.align_s", "s", "lower", 0},
	{"core.align_loop_s", "s", "lower", 0},
	{"core.pair_build_s", "s", "lower", 0},
	{"core.beam_batch_ms", "ms", "lower", 0},
	{"experiments.evaluate_s", "s", "lower", 0},
	{"core.align_alloc_mb", "MB", "lower", 0},
	{"tensor.logprob_us", "us", "lower", 0},
	{"tensor.backward_us", "us", "lower", 0},
	{"nn.adam_step_us", "us", "lower", 0},
	{"core.pairs", "count", "higher", 0},
	{"core.zero_loss_frac", "ratio", "lower", 0},
	{"flow.placement_ms", "ms", "lower", 0},
	{"flow.cts_ms", "ms", "lower", 0},
	{"flow.route_ms", "ms", "lower", 0},
	{"flow.sta_ms", "ms", "lower", 0},
	{"flow.power_ms", "ms", "lower", 0},
	{"flow.signoff_ms", "ms", "lower", 0},
	{"flow.run_ms", "ms", "lower", 0},
	{"online.nonflow_s", "s", "lower", 0},
	{"core.propose_ms", "ms", "lower", 0},
	{"flow.runs", "1/op", "higher", 0},
	{"online.failures", "count", "lower", 0},
	{"runtime.gc_cycles", "1/op", "lower", 0},
	{"runtime.gc_pause_ms", "ms/op", "lower", 0},
	{"runtime.heap_peak_mb", "MB", "lower", 0},
	{"trace.unattributed_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: metric " + name + " is not in the catalog")
}

type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's figures. Lines printed before the result
// carry the run stamp, every figure by name and unit, and the failure
// classes; the result carries the metrics of BENCHMARK.json.
type report struct {
	cfg    runConfig
	setup  float64
	e2e    map[string]float64
	layers map[string]float64
	infos  []string
	notes  []string
	spans  *recorder
	t      *tally
}

func newReport(cfg runConfig) *report {
	return &report{cfg: cfg, e2e: map[string]float64{}, layers: map[string]float64{}}
}

// endToEnd books the end-to-end metrics of a timed phase of ops. The
// latency, throughput and CPU figures come from the caller; the serving
// workloads take them per window.
func (r *report) endToEnd(res phaseResult, ops int, p50, p99, designsPerS, cpuMsPerOp float64) {
	n := float64(ops)
	r.e2e["setup_s"] = r.setup
	r.e2e["latency_p50_ms"] = p50
	r.info("latency_p99_ms", p99, "ms")
	r.e2e["designs_per_s"] = designsPerS
	r.e2e["cpu_ms_per_op"] = cpuMsPerOp
	r.e2e["alloc_mb_per_op"] = res.allocMB / n
	r.info("heap_peak_mb", res.heapPeak(), "MB")
	r.info("timed_s", res.wall.Seconds(), "s")
	r.info("ops", n, "count")
}

// gc books the runtime's share of a traced phase of ops.
func (r *report) gc(res phaseResult, ops int) {
	r.layer("runtime.gc_cycles", res.gcCycles/float64(ops))
	r.layer("runtime.gc_pause_ms", res.gcPauseMs/float64(ops))
	r.layer("runtime.heap_peak_mb", res.heapPeak())
}

func (r *report) layer(name string, v float64) {
	unitOf(perLayer, name) // panics on a name the catalog lacks
	r.layers[name] = v
}

// info prints a named figure that is not one of BENCHMARK.json's metrics.
func (r *report) info(name string, v float64, unit string) {
	r.infos = append(r.infos, fmt.Sprintf("%s %s %s", name, formatValue(v), unit))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// stamp describes the machine, toolchain and code a result came from.
func stamp(cfg runConfig) []string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return []string{
		"workload " + cfg.workload,
		fmt.Sprintf("seed %d", cfg.seed),
		fmt.Sprintf("seconds %g", cfg.seconds.Seconds()),
		fmt.Sprintf("trace %v", cfg.trace),
		fmt.Sprintf("nproc %d", runtime.NumCPU()),
		fmt.Sprintf("gomaxprocs %d", runtime.GOMAXPROCS(0)),
		"cpu " + cpuModel(),
		"go " + runtime.Version(),
		"commit " + commit,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// emit prints the report and returns the result line.
func (r *report) emit() result {
	out := os.Stdout
	for _, s := range stamp(r.cfg) {
		fmt.Fprintln(out, "# "+s)
	}
	names := func(m map[string]float64) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	for _, k := range names(r.e2e) {
		fmt.Fprintf(out, "e2e %s %s %s\n", k, formatValue(r.e2e[k]), unitOf(endToEnd, k))
	}
	for _, s := range r.infos {
		fmt.Fprintln(out, "info "+s)
	}
	for _, k := range names(r.layers) {
		fmt.Fprintf(out, "layer %s %s %s\n", k, formatValue(r.layers[k]), unitOf(perLayer, k))
	}
	r.t.mu.Lock()
	fmt.Fprintf(out, "ops attempted %d succeeded %d failed %d\n", r.t.attempted, r.t.succeeded, r.t.attempted-r.t.succeeded)
	for _, class := range []string{failStatus, failTransport, failTimeout, failMismatch} {
		fmt.Fprintf(out, "failed.%s %d\n", class, r.t.failures[class])
	}
	r.t.mu.Unlock()
	for _, n := range r.notes {
		fmt.Fprintln(out, "note "+n)
	}

	res := result{Attempted: r.t.attempted, Failed: r.t.failed(), Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	defs, vals := endToEnd, r.e2e
	if r.cfg.trace {
		defs, vals = perLayer, r.layers
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !r.cfg.trace {
			res.Correct = false // an end-to-end metric was not measured
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res
}

// writeSpans writes the traced run's spans, one JSON object per line.
func writeSpans(dir string, cfg runConfig, rec *recorder) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	rec.mu.Lock()
	for _, s := range rec.spans {
		if err := enc.Encode(s); err != nil {
			rec.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	rec.mu.Unlock()
	return path, f.Close()
}

var workloads = map[string]func(runConfig) (*report, error){
	"serve-unique": runServe,
	"serve-batch":  runServe,
	"offline":      runOffline,
	"online":       runOnline,
}

func main() {
	var (
		cfg     runConfig
		seconds int
		trace   int
		outDir  string
	)
	flag.StringVar(&cfg.workload, "workload", "", "serve-unique, serve-batch, offline or online")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 15, "timed seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for span files")
	flag.BoolVar(&recordGolden, "record-golden", false, "write this seed's golden outputs instead of checking them")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", cfg.workload, seconds, trace)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if rep.spans != nil {
		path, err := writeSpans(outDir, cfg, rep.spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		rep.note("spans written to %s", path)
	}
	line, err := json.Marshal(rep.emit())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
