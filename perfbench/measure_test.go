package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/serve"
)

func TestPercentileSmallN(t *testing.T) {
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{7}, 50, 7},
		{[]float64{7}, 99, 7},
		{[]float64{2, 1}, 50, 1},
		{[]float64{2, 1}, 99, 2},
		{[]float64{4, 1, 3, 2}, 25, 1},
		{[]float64{4, 1, 3, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 75, 3},
		{[]float64{4, 1, 3, 2}, 99, 4},
		{[]float64{5, 1, 4, 2, 3}, 50, 3},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		if got := percentile(in, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("percentile reordered its input: %v", in)
			}
		}
	}
	// With 100 samples the p99 is the 99th smallest: exactly one above it.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %g, want 99", got)
	}
}

func TestClosedLoopAccounting(t *testing.T) {
	const clients = 3
	tl := newTally()
	var inFlight [clients]atomic.Int32
	var overlap atomic.Bool
	stop := time.Now().Add(30 * time.Millisecond)
	lat := closedLoop(clients, stop, func(c, i int) float64 {
		if inFlight[c].Add(1) != 1 {
			overlap.Store(true)
		}
		defer inFlight[c].Add(-1)
		// The op that starts last outlives the deadline: it must still be
		// counted.
		time.Sleep(time.Duration(1+i%3) * time.Millisecond)
		switch {
		case c == 1 && i%4 == 0:
			tl.record(failTimeout)
		default:
			tl.record("")
		}
		return float64(i)
	})
	if overlap.Load() {
		t.Error("a client issued an op before its previous op returned")
	}
	if !time.Now().After(stop) {
		t.Error("closedLoop returned before the deadline")
	}
	n := 0
	for c, xs := range lat {
		for i, x := range xs {
			if x != float64(i) {
				t.Fatalf("client %d latency %d = %g: ops out of order", c, i, x)
			}
		}
		n += len(xs)
	}
	if tl.attempted != n {
		t.Errorf("attempted %d, but %d ops returned", tl.attempted, n)
	}
	if tl.succeeded+tl.failed() != tl.attempted {
		t.Errorf("succeeded %d + failed %d != attempted %d", tl.succeeded, tl.failed(), tl.attempted)
	}
	if want := (len(lat[1]) + 3) / 4; tl.failures[failTimeout] != want {
		t.Errorf("timeouts %d, want %d", tl.failures[failTimeout], want)
	}
	if len(flatten(lat)) != n {
		t.Error("flatten lost samples")
	}
}

func TestTallyRebooksCheckedOps(t *testing.T) {
	tl := newTally()
	for i := 0; i < 3; i++ {
		tl.record("")
	}
	tl.record(failStatus)
	tl.fail(failMismatch)
	if tl.attempted != 4 || tl.succeeded != 2 || tl.failed() != 2 {
		t.Fatalf("attempted %d succeeded %d failed %d, want 4 2 2", tl.attempted, tl.succeeded, tl.failed())
	}
	if tl.failures[failStatus] != 1 || tl.failures[failMismatch] != 1 {
		t.Errorf("failure classes %v", tl.failures)
	}
}

func TestLayerSelf(t *testing.T) {
	nested := []float64{10, 7, 4, 1} // roundtrip ⊃ handler ⊃ submit ⊃ decode
	self := layerSelf(nested)
	want := []float64{3, 3, 3, 1}
	for i := range want {
		if self[i] != want[i] {
			t.Fatalf("layerSelf(%v) = %v, want %v", nested, self, want)
		}
	}
	if sum(self) != nested[0] {
		t.Errorf("self times sum to %g, want the outer time %g", sum(self), nested[0])
	}
	// A child timed slower than its parent is reported as measured.
	if got := layerSelf([]float64{5, 6}); got[0] != -1 || got[1] != 6 {
		t.Errorf("layerSelf([5 6]) = %v, want [-1 6]", got)
	}
}

func TestRecorderSpans(t *testing.T) {
	var nilRec *recorder
	if ms := nilRec.add("x", "", 0, time.Now().Add(-time.Millisecond)); ms < 1 {
		t.Errorf("a nil recorder still times: got %g ms", ms)
	}
	rec := newRecorder()
	t0 := time.Now()
	rec.addSpan("a", "", 0, t0, t0.Add(2*time.Millisecond))
	rec.addSpan("b", "a", 0, t0, t0.Add(time.Millisecond))
	rec.addSpan("a", "", 1, t0, t0.Add(4*time.Millisecond))
	if got := rec.durations("a"); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("durations(a) = %v, want [2 4]", got)
	}
}

func TestParseExposition(t *testing.T) {
	text := `# HELP insightalign_batch_size Requests coalesced per decoder call.
# TYPE insightalign_batch_size histogram
insightalign_batch_size_bucket{le="1"} 3 # {trace_id="ab"} 1
insightalign_batch_size_bucket{le="+Inf"} 5
insightalign_batch_size_sum 9
insightalign_batch_size_count 5
insightalign_rejections_total{reason="queue full"} 2
insightalign_rejections_total{reason="deadline"} 1
insightalign_beam_sessions_total 1e+03
`
	e := parseExposition(strings.NewReader(text))
	for name, want := range map[string]float64{
		"insightalign_batch_size_count":    5,
		"insightalign_batch_size_sum":      9,
		"insightalign_rejections_total":    3,
		"insightalign_beam_sessions_total": 1000,
		"insightalign_batch_size_bucket":   8,
		"insightalign_missing":             0,
	} {
		if got := e[name]; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

func TestVerifySamplesBooksEachCallOnce(t *testing.T) {
	model, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := newInsightStream(1, 0, 0)
	answer := func(iv []float64) serve.RecommendResponse {
		var resp serve.RecommendResponse
		for _, c := range model.BeamSearch(iv, beamK) {
			resp.Candidates = append(resp.Candidates, serve.CandidateJSON{Recipes: c.Set.String(), LogProb: c.LogProb})
		}
		return resp
	}
	var samples []checkSample
	for call := 0; call < 3; call++ {
		for item := 0; item < 2; item++ {
			iv := in.next(core.DefaultConfig().InsightDim)
			samples = append(samples, checkSample{call: call, iv: iv, resp: answer(iv)})
		}
	}
	// Call 1: both items off by one ulp in a log-prob; call 2: one set wrong.
	for _, i := range []int{2, 3} {
		lp := &samples[i].resp.Candidates[0].LogProb
		*lp = math.Nextafter(*lp, 0)
	}
	samples[5].resp.Candidates[1].Recipes = samples[5].resp.Candidates[0].Recipes
	tl := newTally()
	for i := 0; i < 3; i++ {
		tl.record("")
	}
	checked, bad := verifySamples(model, samples, tl)
	if checked != 6 || bad != 2 {
		t.Errorf("checked %d, bad calls %d; want 6, 2", checked, bad)
	}
	if tl.failed() != 2 || tl.failures[failMismatch] != 2 {
		t.Errorf("failed %d (%v), want 2 mismatches", tl.failed(), tl.failures)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for w := range workloads {
		have = append(have, w)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, " ") != strings.Join(have, " ") {
		t.Errorf("workloads %v, program runs %v", names, have)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, program has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}

func TestMedianSetup(t *testing.T) {
	var torn []int
	n := 0
	d, last, err := medianSetup(3, func() (int, error) {
		n++
		time.Sleep(time.Duration(n) * time.Millisecond)
		return n, nil
	}, func(s int) { torn = append(torn, s) })
	if err != nil || last != 3 {
		t.Fatalf("medianSetup = %g, %d, %v; want the third state", d, last, err)
	}
	if len(torn) != 2 || torn[0] != 1 || torn[1] != 2 {
		t.Errorf("torn down %v, want [1 2]", torn)
	}
	if d < 0.002 || d > 0.003+0.05 {
		t.Errorf("median set-up %g s, want about 2 ms", d)
	}
}

func TestWindowedTakesMediansOverWindows(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	windows := []window{
		{start: at(0), end: at(1000), cpu: 40 * time.Millisecond},
		{start: at(1000), end: at(2000), cpu: 30 * time.Millisecond},
		{start: at(2000), end: at(3000), cpu: 90 * time.Millisecond}, // a slow second
		{start: at(3000), end: at(4000), cpu: time.Millisecond},      // no op ended here
	}
	ops := []opRecord{
		{end: at(100), ms: 1, items: 2}, {end: at(500), ms: 3, items: 2}, {end: at(999), ms: 2, items: 2},
		{end: at(1000), ms: 4, items: 2}, {end: at(1500), ms: 2, items: 2}, {end: at(1999), ms: 2, items: 2},
		{end: at(2500), ms: 30, items: 2},
		{end: at(4000), ms: 99, items: 2}, // after the last full window: not counted
	}
	f := windowed(windows, ops)
	// Per window: p50 2, 2, 30; p99 3, 4, 30; items/s 6, 6, 2; CPU per op
	// 13.3, 10, 90.
	if f.p50Ms != 2 || f.p99Ms != 4 || f.itemsPerS != 6 || math.Abs(f.cpuMsPerOp-40.0/3) > 1e-9 {
		t.Errorf("windowed = %+v; want p50 2, p99 4, 6/s, 13.33 ms CPU", f)
	}
}
