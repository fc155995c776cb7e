package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/serve"
)

// The serving workloads drive an in-process server built from
// serve.DefaultConfig() — what `insightalign-serve serve` runs by default:
// the micro-batcher on, no response cache — with closed-loop clients over
// loopback HTTP.
//
//   - serve-unique: two clients, on two connections, send POST
//     /v1/recommend, K=5, and every request carries a distinct seeded
//     72-dim insight. At this concurrency the 2 ms batch window, net/http
//     and JSON dominate each request; a K=5 decode is a small part of it.
//     This workload exposes the HTTP/codec layer and the per-request cost
//     of the batcher.
//   - serve-batch: one client sends POST /v1/recommend/batch with 32
//     distinct insights per call. Every call puts 32 requests into the
//     admission queue at once, so the coalesced decode and queueing
//     dominate and net/http and JSON cost little per design. A batcher
//     change that wins serve-unique but loses the tail shows here. With
//     two clients the loops lock into one of two modes for a whole run —
//     their decodes overlapping or alternating — and the median call read
//     19 ms in some runs and 30 ms in others; one client has no such modes.
//
// Both are closed loops: with at most two connections an open loop could
// not queue more than two requests either, and serve-batch is the
// workload that builds a deep queue. The response cache is opt-in
// (-cache) and stays off: every insight here is distinct, so it could
// only miss.
type serveWorkload struct {
	path        string // route every call goes to
	batch       int    // insights per call
	clients     int    // connections and client goroutines, at most nproc
	warmup      int    // calls per client made during set-up
	sampleEvery int    // one call in sampleEvery is checked against a direct decode
	checkItems  int    // insights checked per sampled call
}

var serveWorkloads = map[string]serveWorkload{
	"serve-unique": {path: "/v1/recommend", batch: 1, clients: 2, warmup: 200, sampleEvery: 16, checkItems: 1},
	"serve-batch":  {path: "/v1/recommend/batch", batch: 32, clients: 1, warmup: 24, sampleEvery: 4, checkItems: 4},
}

const (
	beamK         = 5
	clientTimeout = 10 * time.Second
	setupRepeats  = 3
)

// serveState is one set-up server with its warm client.
type serveState struct {
	model  *core.Model
	srv    *serve.Server
	errc   <-chan error
	url    string
	client *http.Client
}

func (st *serveState) close() {
	st.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.srv.Shutdown(ctx) // a drain error leaves nothing to clean up here
	for range st.errc {      // Serve's goroutine closes errc when it returns
	}
}

// insightStream yields distinct seeded insight vectors: each client owns
// a stream, so the inputs do not depend on how the clients interleave.
type insightStream struct{ rng *rand.Rand }

func newInsightStream(seed int64, stream, client int) *insightStream {
	return &insightStream{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7919 + int64(client)))}
}

func (s *insightStream) next(dim int) []float64 {
	iv := make([]float64, dim)
	for i := range iv {
		iv[i] = s.rng.Float64()
	}
	return iv
}

// body encodes one call's request: a RecommendRequest, or a BatchRequest
// of len(ivs) insights.
func (w serveWorkload) body(ivs [][]float64) []byte {
	var v any
	if w.batch == 1 {
		v = serve.RecommendRequest{Insight: ivs[0], BeamWidth: beamK}
	} else {
		reqs := make([]serve.RecommendRequest, len(ivs))
		for i, iv := range ivs {
			reqs[i] = serve.RecommendRequest{Insight: iv, BeamWidth: beamK}
		}
		v = serve.BatchRequest{Requests: reqs}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of finite floats always encode
	}
	return b
}

// decodeCall reads one call's response body into per-insight responses.
func (w serveWorkload) decodeCall(r io.Reader, n int) ([]serve.RecommendResponse, error) {
	if w.batch == 1 {
		var resp serve.RecommendResponse
		if err := json.NewDecoder(r).Decode(&resp); err != nil {
			return nil, err
		}
		return []serve.RecommendResponse{resp}, nil
	}
	var resp serve.BatchResponse
	if err := json.NewDecoder(r).Decode(&resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != n {
		return nil, fmt.Errorf("batch response has %d results, want %d", len(resp.Results), n)
	}
	return resp.Results, nil
}

// call sends one request and returns the failure class ("" on success)
// and the decoded responses.
func (st *serveState) call(w serveWorkload, body []byte, n int) (string, []serve.RecommendResponse) {
	resp, err := st.client.Post(st.url+w.path, "application/json", bytes.NewReader(body))
	if err != nil {
		return errClass(err), nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return failStatus, nil
	}
	out, err := w.decodeCall(resp.Body, n)
	_, _ = io.Copy(io.Discard, resp.Body) // the encoder's trailing newline
	if err != nil {
		return errClass(err), nil
	}
	for _, r := range out {
		if r.Error != "" || len(r.Candidates) == 0 {
			return failStatus, out
		}
	}
	return "", out
}

func errClass(err error) string {
	var ne net.Error
	if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		return failTimeout
	}
	return failTransport
}

// setupServe starts a server and warms it with seeded inputs. The served
// model is the same for every seed, core.DefaultConfig(): the response
// size follows how many recipes the model selects, so a model drawn from
// the seed would change the work per request from seed to seed. The
// inputs are what the seed varies.
func setupServe(seed int64, w serveWorkload, clients int) (*serveState, error) {
	mcfg := core.DefaultConfig()
	model, err := core.New(mcfg)
	if err != nil {
		return nil, err
	}
	reg, err := serve.NewRegistry(mcfg)
	if err != nil {
		return nil, err
	}
	if _, err := reg.SetModel(model, "perfbench"); err != nil {
		return nil, err
	}
	cfg := serve.DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	// The server logs one JSON line per request, as the serve command
	// does; formatting stays in the measured path, writing does not.
	cfg.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	srv, err := serve.New(cfg, reg)
	if err != nil {
		return nil, err
	}
	errc, err := srv.Start()
	if err != nil {
		return nil, err
	}
	st := &serveState{
		model: model, srv: srv, errc: errc, url: "http://" + srv.Addr(),
		client: &http.Client{Timeout: clientTimeout, Transport: &http.Transport{
			MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true,
		}},
	}
	// Warm-up: keep-alive connections, the decoder's session pool and its
	// l0 table all exist before timing starts.
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			in := newInsightStream(seed, 1, c)
			for i := 0; i < w.warmup; i++ {
				ivs := make([][]float64, w.batch)
				for j := range ivs {
					ivs[j] = in.next(mcfg.InsightDim)
				}
				if class, _ := st.call(w, w.body(ivs), w.batch); class != "" {
					errs[c] = fmt.Errorf("warm-up call failed: %s", class)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// checkSample is one served answer kept for comparison with a direct
// decode of the same insight after the timed phase.
type checkSample struct {
	call int // the call that returned it; a call's items share it
	iv   []float64
	resp serve.RecommendResponse
}

// matches reports whether a served answer equals model.BeamSearch of the
// same insight: the same sets in the same order, bit-equal log-probs.
func matches(model *core.Model, iv []float64, resp serve.RecommendResponse) bool {
	want := model.BeamSearch(iv, beamK)
	if len(resp.Candidates) != len(want) {
		return false
	}
	for i, c := range want {
		got := resp.Candidates[i]
		if got.Recipes != c.Set.String() || math.Float64bits(got.LogProb) != math.Float64bits(c.LogProb) {
			return false
		}
	}
	return true
}

// loadResult is one closed-loop phase against the server.
type loadResult struct {
	ops     []opRecord // per call; a failed call reads as the client timeout
	lat     []float64  // the ops' latencies, ms
	designs int        // insights answered by successful calls
	res     phaseResult
	samples []checkSample
}

// runLoad drives the closed loop for d against st and keeps a seeded
// sample of answers for checking. rec, if non-nil, records a span per call.
func runLoad(st *serveState, w serveWorkload, seed int64, stream, clients int, d time.Duration, t *tally, rec *recorder) loadResult {
	var (
		mu      sync.Mutex
		designs int
		samples []checkSample
	)
	recs := make([][]opRecord, clients)
	dim := core.DefaultConfig().InsightDim
	streams := make([]*insightStream, clients)
	pick := make([]*rand.Rand, clients)
	for c := range streams {
		streams[c] = newInsightStream(seed, stream, c)
		pick[c] = rand.New(rand.NewSource(seed ^ int64(stream*131+c+1)))
	}
	ph := startPhase()
	lat := closedLoop(clients, time.Now().Add(d), func(c, i int) float64 {
		ivs := make([][]float64, w.batch)
		for j := range ivs {
			ivs[j] = streams[c].next(dim)
		}
		body := w.body(ivs)
		t0 := time.Now()
		class, out := st.call(w, body, w.batch)
		ms := rec.add("http.roundtrip", "", c<<32|i, t0)
		t.record(class)
		if class != "" {
			ms = float64(clientTimeout / time.Millisecond)
			recs[c] = append(recs[c], opRecord{end: time.Now(), ms: ms})
			return ms
		}
		recs[c] = append(recs[c], opRecord{end: time.Now(), ms: ms, items: w.batch})
		sampled := pick[c].Intn(w.sampleEvery) == 0
		mu.Lock()
		designs += w.batch
		if sampled {
			for _, j := range pick[c].Perm(w.batch)[:w.checkItems] {
				samples = append(samples, checkSample{call: c<<32 | i, iv: ivs[j], resp: out[j]})
			}
		}
		mu.Unlock()
		return ms
	})
	res := ph.end()
	var ops []opRecord
	for _, r := range recs {
		ops = append(ops, r...)
	}
	return loadResult{ops: ops, lat: flatten(lat), designs: designs, res: res, samples: samples}
}

// verifySamples checks the kept samples and re-books every call with a
// mismatching answer as failed. It returns the samples checked and the
// calls that mismatched.
func verifySamples(model *core.Model, samples []checkSample, t *tally) (checked, badCalls int) {
	bad := map[int]bool{}
	for _, s := range samples {
		if !bad[s.call] && !matches(model, s.iv, s.resp) {
			bad[s.call] = true
			t.fail(failMismatch)
		}
	}
	return len(samples), len(bad)
}

func runServe(cfg runConfig) (*report, error) {
	w := serveWorkloads[cfg.workload]
	clients := min(w.clients, runtime.NumCPU())
	setupS, st, err := medianSetup(setupRepeats, func() (*serveState, error) {
		return setupServe(cfg.seed, w, clients)
	}, func(s *serveState) { s.close() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	rep := newReport(cfg)
	rep.setup = setupS
	t := newTally()
	d := cfg.seconds
	if cfg.trace {
		d = cfg.seconds * 3 / 10
	}
	// The untraced closed loop: the end-to-end figures.
	base := runLoad(st, w, cfg.seed, 2, clients, d, t, nil)
	checked, bad := verifySamples(st.model, base.samples, t)
	rep.note("checked %d sampled answers against model.BeamSearch: %d calls mismatched", checked, bad)
	// Latency, throughput and CPU are medians over one-second windows, so
	// a few slow seconds of a shared machine do not move them; the
	// whole-run figures are printed beside them.
	f := windowed(base.res.windows, base.ops)
	rep.endToEnd(base.res, len(base.ops), f.p50Ms, f.p99Ms, f.itemsPerS, f.cpuMsPerOp)
	rep.info("designs_per_s_whole_run", float64(base.designs)/base.res.wall.Seconds(), "1/s")
	rep.info("latency_p99_ms_whole_run", percentile(base.lat, 99), "ms")
	if cfg.trace {
		traceServe(rep, st, w, cfg, clients, t, base)
	}
	rep.t = t
	return rep, nil
}

// traceServe measures each serving layer from outside through its public
// function, one closed-loop phase per layer with the same clients:
//
//	http.roundtrip  the full call over loopback (client span per call)
//	serve.handler   Server.Handler().ServeHTTP on an in-memory request
//	serve.submit    Batcher.Submit on a serve.NewBatcher with the
//	                DefaultConfig queue, batch, window and concurrency
//	core.decode     Decoder.BeamSearch(5), or Model.BeamSearchBatchK at the
//	                batch shape the roundtrip phase observed
//	serve.json      encode+decode of the public request and response types
//
// The layers nest (roundtrip ⊃ handler ⊃ submit ⊃ decode), so each self
// time is the difference of neighbouring medians: http.self_ms is
// net/http, TCP and the client; serve.handler_self_ms is the middleware,
// body decode, validation and encode; serve.batch_wait_ms is the admission
// queue and batch window. What moves what:
//   - http.self_ms and serve.json_us move latency_p50_ms and designs_per_s
//     on serve-unique and barely move them on serve-batch;
//   - serve.batch_wait_ms moves latency_p50_ms on serve-unique and
//     latency_p99_ms on serve-batch;
//   - core.decode_ms and serve.batch_size_mean move designs_per_s on
//     serve-batch.
func traceServe(rep *report, st *serveState, w serveWorkload, cfg runConfig, clients int, t *tally, base loadResult) {
	rec := newRecorder()
	slice := cfg.seconds / 10
	dim := core.DefaultConfig().InsightDim

	before, err := scrape(st)
	if err != nil {
		rep.note("metrics scrape failed: %v", err)
	}
	traced := runLoad(st, w, cfg.seed, 3, clients, cfg.seconds*3/10, t, rec)
	after, err := scrape(st)
	if err != nil {
		rep.note("metrics scrape failed: %v", err)
	}
	verifySamples(st.model, traced.samples, t)
	rt := rec.durations("http.roundtrip")
	calls := float64(len(rt))
	decoderCalls := after["insightalign_batch_size_count"] - before["insightalign_batch_size_count"]
	batchMean := 0.0
	if decoderCalls > 0 {
		batchMean = (after["insightalign_batch_size_sum"] - before["insightalign_batch_size_sum"]) / decoderCalls
	}
	rep.layer("serve.decoder_calls", decoderCalls/calls)
	rep.layer("serve.batch_size_mean", batchMean)
	rep.layer("serve.rejected", after["insightalign_rejections_total"]-before["insightalign_rejections_total"]+
		after["insightalign_serve_shed_total"]-before["insightalign_serve_shed_total"])
	rep.layer("core.beam_sessions", (after["insightalign_beam_sessions_total"]-before["insightalign_beam_sessions_total"])/calls)

	// serve.handler: the handler on in-memory requests, no TCP and no
	// net/http server.
	h := st.srv.Handler()
	handlerPhase := func(c, i int, ivs [][]float64) {
		req := httptest.NewRequest(http.MethodPost, w.path, bytes.NewReader(w.body(ivs)))
		out := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(out, req)
		rec.add("serve.handler", "http.roundtrip", c<<32|i, t0)
		if out.Code != http.StatusOK {
			t.record(failStatus)
		} else {
			t.record("")
		}
	}
	// serve.submit: a batcher of its own with the server's settings.
	scfg := serve.DefaultConfig()
	bat := serve.NewBatcher(st.srv.Registry(), nil, scfg.QueueDepth, scfg.MaxBatch, scfg.MaxConcurrentBatches, scfg.BatchWindow)
	submitPhase := func(c, i int, ivs [][]float64) {
		ctx, cancel := context.WithTimeout(context.Background(), scfg.RequestTimeout)
		defer cancel()
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, iv := range ivs {
			wg.Add(1)
			go func(iv []float64) {
				defer wg.Done()
				bat.Submit(ctx, iv, beamK)
			}(iv)
		}
		wg.Wait()
		rec.add("serve.submit", "serve.handler", c<<32|i, t0)
	}
	// core.decode: one decoder call per op at the observed shape.
	shape := 1
	if w.batch > 1 {
		shape = int(math.Round(batchMean))
		if shape < 1 {
			shape = 1
		}
		if shape > w.batch {
			shape = w.batch
		}
	}
	decodePhase := func(c, i int, ivs [][]float64) {
		t0 := time.Now()
		if w.batch == 1 {
			st.model.NewDecoder(ivs[0]).BeamSearch(beamK)
		} else {
			ks := make([]int, shape)
			for j := range ks {
				ks[j] = beamK
			}
			st.model.BeamSearchBatchK(ivs[:shape], ks)
		}
		rec.add("core.decode", "serve.submit", c<<32|i, t0)
	}
	// serve.json: what the client and the server encode and decode per
	// call, using a real response of this workload.
	resp := sampleResponse(st, w, cfg.seed)
	jsonPhase := func(c, i int, ivs [][]float64) {
		t0 := time.Now()
		err := w.decodeRequest(w.body(ivs))
		if err == nil {
			var buf bytes.Buffer
			if err = json.NewEncoder(&buf).Encode(resp); err == nil {
				_, err = w.decodeCall(&buf, w.batch)
			}
		}
		rec.add("serve.json", "serve.handler", c<<32|i, t0)
		if err != nil {
			t.record(failTransport)
		}
	}
	for k, ph := range []func(c, i int, ivs [][]float64){handlerPhase, submitPhase, decodePhase, jsonPhase} {
		streams := make([]*insightStream, clients)
		for c := range streams {
			streams[c] = newInsightStream(cfg.seed, 10+k, c)
		}
		closedLoop(clients, time.Now().Add(slice), func(c, i int) float64 {
			ivs := make([][]float64, w.batch)
			for j := range ivs {
				ivs[j] = streams[c].next(dim)
			}
			ph(c, i, ivs)
			return 0
		})
	}
	bat.Close()

	hd := rec.durations("serve.handler")
	sb := rec.durations("serve.submit")
	dc := rec.durations("core.decode")
	js := rec.durations("serve.json")
	rep.layer("http.roundtrip_ms.p50", percentile(rt, 50))
	rep.layer("http.roundtrip_ms.p99", percentile(rt, 99))
	rep.layer("serve.handler_ms.p50", percentile(hd, 50))
	rep.layer("serve.handler_ms.p99", percentile(hd, 99))
	rep.layer("serve.submit_ms.p50", percentile(sb, 50))
	rep.layer("serve.submit_ms.p99", percentile(sb, 99))
	rep.layer("core.decode_ms.p50", percentile(dc, 50))
	rep.layer("core.decode_ms.p99", percentile(dc, 99))
	rep.layer("serve.json_us", 1000*median(js))
	self := layerSelf([]float64{percentile(rt, 50), percentile(hd, 50), percentile(sb, 50), percentile(dc, 50)})
	rep.layer("http.self_ms", self[0])
	rep.layer("serve.handler_self_ms", self[1])
	rep.layer("serve.batch_wait_ms", self[2])
	// The leaves the benchmark times on their own are the decode, the
	// batch wait and the JSON codec; the rest of a call (net/http, TCP,
	// middleware, validation) is unattributed.
	rep.layer("trace.unattributed_ms", percentile(rt, 50)-self[3]-self[2]-median(js))
	rep.layer("trace.overhead_pct", 100*(percentile(traced.lat, 50)-percentile(base.lat, 50))/percentile(base.lat, 50))
	rep.gc(traced.res, len(traced.ops))
	rep.spans = rec
}

// decodeRequest decodes a request body the way the server does.
func (w serveWorkload) decodeRequest(b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if w.batch == 1 {
		var req serve.RecommendRequest
		return dec.Decode(&req)
	}
	var req serve.BatchRequest
	return dec.Decode(&req)
}

// sampleResponse fetches one real response of the workload for the JSON
// phase.
func sampleResponse(st *serveState, w serveWorkload, seed int64) any {
	in := newInsightStream(seed, 20, 0)
	ivs := make([][]float64, w.batch)
	for j := range ivs {
		ivs[j] = in.next(core.DefaultConfig().InsightDim)
	}
	_, out := st.call(w, w.body(ivs), w.batch)
	if w.batch == 1 && len(out) == 1 {
		return out[0]
	}
	return serve.BatchResponse{Results: out}
}

// exposition is one scrape of the server's /metrics, summed per series
// name over all label sets.
type exposition map[string]float64

func scrape(st *serveState) (exposition, error) {
	resp, err := st.client.Get(st.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseExposition(resp.Body), nil
}

// parseExposition reads Prometheus text, summing each series name over
// its label sets. Lines it cannot parse are skipped.
func parseExposition(r io.Reader) exposition {
	out := exposition{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i] // drop an exemplar
		}
		name, rest := line, ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			if j := strings.LastIndexByte(line, '}'); j > i {
				rest = line[j+1:]
			}
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(f[0], 64); err == nil {
			out[name] += v
		}
	}
	return out
}
