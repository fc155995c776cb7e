package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
// It always returns a value that was measured, which matters at small n:
// the p99 of fewer than 100 samples is their maximum, not an
// extrapolation. xs need not be sorted; it is not modified. An empty
// slice yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// Failure classes of an op. Every failed op carries exactly one.
const (
	failStatus    = "http_status"    // non-200 response, or a per-item error in a batch
	failTransport = "transport"      // connection, read or body-decode error
	failTimeout   = "timeout"        // the client's deadline expired
	failMismatch  = "check_mismatch" // an output differs from its reference
)

// tally is the op accounting of one run: every attempted op either
// succeeds or fails with one class. It is safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	succeeded int
	failures  map[string]int
}

func newTally() *tally { return &tally{failures: map[string]int{}} }

// record books one finished op; class "" means it succeeded.
func (t *tally) record(class string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if class == "" {
		t.succeeded++
		return
	}
	t.failures[class]++
}

// fail re-books an op already counted as succeeded as failed with class
// (a check that runs after the op, such as an output comparison).
func (t *tally) fail(class string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.succeeded--
	t.failures[class]++
}

func (t *tally) failed() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted - t.succeeded
}

// closedLoop runs clients goroutines until stop passes. Each client calls
// op with its index and its own op counter, and issues its next op only
// after the previous one returned, so a slow system receives less load.
// An op started before stop always runs to completion and is counted:
// nothing is cut off at the deadline. It returns each op's latency in
// milliseconds, in completion order per client.
func closedLoop(clients int, stop time.Time, op func(client, i int) (ms float64)) [][]float64 {
	lat := make([][]float64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(stop); i++ {
				lat[c] = append(lat[c], op(c, i))
			}
		}(c)
	}
	wg.Wait()
	return lat
}

func flatten(xss [][]float64) []float64 {
	var out []float64
	for _, xs := range xss {
		out = append(out, xs...)
	}
	return out
}

// layerSelf subtracts, in order, each inner layer's time from the layer
// that encloses it: given the times of nested layers outermost first
// (roundtrip ⊃ handler ⊃ submit ⊃ decode), it returns each layer's self
// time — its own time minus its child's — with the innermost layer's
// time as its own self time. The self times sum to the outermost time.
// A negative self time is returned as measured: it means the layers were
// timed under different conditions, not that the work was free.
func layerSelf(nested []float64) []float64 {
	out := make([]float64, len(nested))
	for i := range nested {
		out[i] = nested[i]
		if i+1 < len(nested) {
			out[i] -= nested[i+1]
		}
	}
	return out
}

// span is one timed call into a layer, recorded by the benchmark around
// a public function of the program. Spans of one op share op; parent is
// the name of the enclosing span ("" for the op itself).
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Op     int     `json:"op"`
	Start  float64 `json:"start_ms"` // since the recorder was made
	Dur    float64 `json:"dur_ms"`
}

// recorder keeps spans in memory; they are written out when the run ends,
// so no I/O happens while a layer is being timed. A nil recorder records
// nothing, which is how the untraced runs call the same code.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span that began at start and ended now, and returns its
// duration in milliseconds.
func (r *recorder) add(name, parent string, op int, start time.Time) float64 {
	return r.addSpan(name, parent, op, start, time.Now())
}

// addSpan records a span from start to end and returns its duration in
// milliseconds.
func (r *recorder) addSpan(name, parent string, op int, start, end time.Time) float64 {
	ms := msSince(start, end)
	if r == nil {
		return ms
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op, Start: msSince(r.t0, start), Dur: ms})
	r.mu.Unlock()
	return ms
}

func msSince(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }

// durations returns the durations in milliseconds of every span named name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.Dur)
		}
	}
	return out
}

// sum is the total of xs.
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// usage is a snapshot of the process counters that the per-op resource
// metrics are deltas of.
type usage struct {
	wall       time.Time
	cpu        time.Duration // user + system
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:       time.Now(),
		cpu:        cpuTime(),
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		pauseNs:    ms.PauseTotalNs,
	}
}

// windowLen is the length of the windows a phase is cut into. Per-window
// figures, and their median over the windows, ride out the seconds in
// which a shared machine runs slow.
const windowLen = time.Second

// window is one full window of a phase.
type window struct {
	start, end time.Time
	cpu        time.Duration // process user+system CPU in the window
	heapPeak   float64       // MB, the window's peak HeapInuse
}

// phase measures the process resources one timed phase uses. A sampler
// goroutine reads HeapInuse (live and not yet swept heap spans) every
// 5 ms through runtime/metrics, which, unlike runtime.ReadMemStats, does
// not stop the world, so sampling does not disturb the latencies being
// measured. It also closes a window every windowLen.
type phase struct {
	before     usage
	stop, done chan struct{}
	windows    []window // written by the sampler; read after done
}

func startPhase() *phase {
	runtime.GC() // start every phase from the same collected heap
	p := &phase{before: readUsage(), stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		w := window{start: p.before.wall}
		cpu0 := p.before.cpu
		for {
			metrics.Read(samples)
			if v := float64(samples[0].Value.Uint64()+samples[1].Value.Uint64()) / 1e6; v > w.heapPeak {
				w.heapPeak = v
			}
			if now := time.Now(); now.Sub(w.start) >= windowLen {
				cpu := cpuTime()
				w.end, w.cpu = now, cpu-cpu0
				p.windows = append(p.windows, w)
				w, cpu0 = window{start: now}, cpu
			}
			select {
			case <-p.stop:
				if len(p.windows) == 0 {
					// A phase shorter than a window is one window.
					w.end, w.cpu = time.Now(), cpuTime()-cpu0
					p.windows = append(p.windows, w)
				}
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// phaseResult is what a phase cost the whole process.
type phaseResult struct {
	wall      time.Duration
	cpu       time.Duration
	allocMB   float64
	gcCycles  float64
	gcPauseMs float64
	windows   []window
}

// heapPeak is the median over the phase's windows of each window's peak
// HeapInuse, in MB.
func (r phaseResult) heapPeak() float64 {
	peaks := make([]float64, len(r.windows))
	for i, w := range r.windows {
		peaks[i] = w.heapPeak
	}
	return median(peaks)
}

// cpuMsPerOp is the phase's CPU time per op over the whole phase.
func (r phaseResult) cpuMsPerOp(ops int) float64 {
	return float64(r.cpu) / float64(time.Millisecond) / float64(ops)
}

// opRecord is one finished op of a closed loop.
type opRecord struct {
	end   time.Time
	ms    float64 // latency
	items int     // work the op completed: designs answered
}

// windowFigures are the medians over a phase's windows of per-window
// figures.
type windowFigures struct {
	p50Ms, p99Ms, itemsPerS, cpuMsPerOp float64
}

// windowed assigns ops to the phase's windows by the time they ended and
// returns the medians, over the windows that saw an op, of the window's
// p50 and p99 latency, its items per second and its CPU per op.
func windowed(windows []window, ops []opRecord) windowFigures {
	var p50s, p99s, rates, cpus []float64
	for _, w := range windows {
		var lat []float64
		items := 0
		for _, o := range ops {
			if !o.end.Before(w.start) && o.end.Before(w.end) {
				lat = append(lat, o.ms)
				items += o.items
			}
		}
		if len(lat) == 0 {
			continue
		}
		p50s = append(p50s, percentile(lat, 50))
		p99s = append(p99s, percentile(lat, 99))
		rates = append(rates, float64(items)/w.end.Sub(w.start).Seconds())
		cpus = append(cpus, float64(w.cpu)/float64(time.Millisecond)/float64(len(lat)))
	}
	return windowFigures{median(p50s), median(p99s), median(rates), median(cpus)}
}

func (p *phase) end() phaseResult {
	close(p.stop)
	<-p.done
	a := readUsage()
	return phaseResult{
		wall:      a.wall.Sub(p.before.wall),
		cpu:       a.cpu - p.before.cpu,
		allocMB:   float64(a.totalAlloc-p.before.totalAlloc) / 1e6,
		gcCycles:  float64(a.numGC - p.before.numGC),
		gcPauseMs: float64(a.pauseNs-p.before.pauseNs) / 1e6,
		windows:   p.windows,
	}
}

// medianSetup runs setup n times and returns the median duration in
// seconds and the state the last run built; teardown releases the state
// of every earlier run. Repeating set-up makes setup_s a median, so one
// slow start does not move it.
func medianSetup[T any](n int, setup func() (T, error), teardown func(T)) (float64, T, error) {
	var (
		ds    []float64
		state T
	)
	for i := 0; i < n; i++ {
		if i > 0 && teardown != nil {
			teardown(state)
		}
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return 0, s, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		state = s
	}
	return median(ds), state, nil
}
