package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/obs"
)

// Admission / batching errors, mapped to HTTP codes by the handlers.
var (
	// ErrQueueFull rejects a request because the bounded admission queue
	// is at capacity (HTTP 429).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrShutdown rejects a request because the server is draining
	// (HTTP 503).
	ErrShutdown = errors.New("serve: server shutting down")
	// ErrNoModel rejects a request because no model has been installed
	// yet (HTTP 503).
	ErrNoModel = errors.New("serve: no model loaded")
	// ErrBackend marks a failed backend (decoder) invocation — the hook
	// seam errored (HTTP 502). These failures feed the circuit breaker.
	ErrBackend = errors.New("serve: backend failure")
)

// runBackendHook executes the backend fault seam (nil hook: healthy).
// Context errors pass through unchanged (they map to 504/499); anything
// else is normalized to ErrBackend so the handlers and the circuit breaker
// classify it as backend ill-health.
func runBackendHook(ctx context.Context, hook func(context.Context) error) error {
	err := func() error {
		if hook == nil {
			return nil
		}
		return hook(ctx)
	}()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return err
	default:
		return fmt.Errorf("%w: %v", ErrBackend, err)
	}
}

// batchRequest is one enqueued recommendation query.
type batchRequest struct {
	ctx  context.Context
	iv   []float64
	k    int
	done chan batchResult // buffered(1); the executor never blocks on it
}

// batchResult is what the executor hands back to a waiting handler.
type batchResult struct {
	cands     []core.Candidate
	version   string // model version that produced the candidates
	batchSize int    // how many requests shared the decoder call
	err       error
}

// Batcher implements dynamic micro-batching: concurrent single requests
// are admitted through a bounded queue and coalesced by a collector
// goroutine — first arrival opens a batch, then up to MaxBatch further
// requests are gathered for at most Window — into one
// core.BeamSearchBatchK call, amortizing the decoder fan-out across
// callers. Expired requests (per-request deadlines) are dropped at
// execution time; a full queue rejects immediately with ErrQueueFull.
type Batcher struct {
	reg *Registry
	met *Metrics
	// hook, if non-nil, runs before every decoder call (the serve-side
	// fault-injection seam): an error fails the whole coalesced batch
	// with ErrBackend, a blocking hook simulates a hung backend and is
	// bounded by the first live request's deadline.
	hook     func(ctx context.Context) error
	queue    chan *batchRequest
	window   time.Duration
	maxBatch int
	execSem  chan struct{} // bounds concurrently executing batches

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup // collector + in-flight executors
}

// NewBatcher starts the collector goroutine. met may be nil (no metrics).
func NewBatcher(reg *Registry, met *Metrics, queueDepth, maxBatch, maxConcurrent int, window time.Duration) *Batcher {
	if queueDepth < 1 {
		queueDepth = 1
	}
	if maxBatch < 1 {
		maxBatch = 1
	}
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	if window <= 0 {
		window = time.Millisecond
	}
	b := &Batcher{
		reg:      reg,
		met:      met,
		queue:    make(chan *batchRequest, queueDepth),
		window:   window,
		maxBatch: maxBatch,
		execSem:  make(chan struct{}, maxConcurrent),
		stop:     make(chan struct{}),
	}
	b.wg.Add(1)
	go b.collect()
	return b
}

// Depth reports the current admission-queue occupancy (the queue-depth
// gauge).
func (b *Batcher) Depth() int { return len(b.queue) }

// Submit enqueues one query and blocks until its batch executes, the
// context expires, or the server drains. The returned batchResult carries
// the producing model version and the size of the coalesced batch.
func (b *Batcher) Submit(ctx context.Context, iv []float64, k int) batchResult {
	// The admission span covers queue wait + decode; the executor roots its
	// decoder_session span off this context, so one trace ID runs HTTP
	// handler -> admission queue -> micro-batch -> decoder session.
	ctx, span := obs.StartSpan(ctx, "admission_queue")
	defer span.End()
	req := &batchRequest{ctx: ctx, iv: iv, k: k, done: make(chan batchResult, 1)}
	select {
	case <-b.stop:
		b.reject("shutdown")
		return batchResult{err: ErrShutdown}
	default:
	}
	select {
	case b.queue <- req:
	default:
		b.reject("queue_full")
		return batchResult{err: ErrQueueFull}
	}
	select {
	case res := <-req.done:
		return res
	case <-ctx.Done():
		b.reject("deadline")
		return batchResult{err: ctx.Err()}
	case <-b.stop:
		// The collector drains and fails pending requests on shutdown,
		// but the done send races with stop; prefer whichever arrives.
		select {
		case res := <-req.done:
			return res
		default:
			b.reject("shutdown")
			return batchResult{err: ErrShutdown}
		}
	}
}

// Close stops admission, fails queued requests, and waits for in-flight
// batches to finish. Safe to call more than once.
func (b *Batcher) Close() {
	b.stopOnce.Do(func() { close(b.stop) })
	b.wg.Wait()
}

// collect is the single coalescing loop: block for the first request,
// gather followers for one window (or until the batch is full), then hand
// the batch to a bounded executor so collection continues while decoding
// runs.
func (b *Batcher) collect() {
	defer b.wg.Done()
	// One window timer for the life of the collector, re-armed per batch.
	// It starts disarmed: Reset requires a stopped, drained timer, so after
	// every gather that did not consume the fire we Stop and non-blockingly
	// drain. The drain must not block — depending on the Go runtime's timer
	// semantics a false Stop may leave the channel empty, and a blocking
	// receive would deadlock the collector.
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		var first *batchRequest
		select {
		case first = <-b.queue:
		case <-b.stop:
			b.drain()
			return
		}
		batch := append(make([]*batchRequest, 0, b.maxBatch), first)
		if len(batch) < b.maxBatch {
			timer.Reset(b.window)
			fired := false
		gather:
			for len(batch) < b.maxBatch {
				select {
				case r := <-b.queue:
					batch = append(batch, r)
				case <-timer.C:
					fired = true
					break gather
				case <-b.stop:
					break gather
				}
			}
			if !fired && !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		b.execSem <- struct{}{}
		b.wg.Add(1)
		go b.run(batch)
	}
}

// drain fails everything still queued at shutdown.
func (b *Batcher) drain() {
	for {
		select {
		case r := <-b.queue:
			r.done <- batchResult{err: ErrShutdown}
		default:
			return
		}
	}
}

// run executes one coalesced batch: drop requests whose deadline already
// passed, decode the rest in a single BeamSearchBatchK call against one
// registry snapshot, and fan results back out.
func (b *Batcher) run(batch []*batchRequest) {
	defer b.wg.Done()
	defer func() { <-b.execSem }()
	live := batch[:0]
	for _, r := range batch {
		if r.ctx.Err() != nil {
			// The waiting handler already gave up via ctx.Done; nothing
			// to send.
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	snap := b.reg.Current()
	if snap == nil {
		for _, r := range live {
			r.done <- batchResult{err: ErrNoModel}
		}
		return
	}
	// A hung hook parks this executor until the first live request's
	// deadline fires, so the stall is bounded and the execSem slot frees.
	if err := runBackendHook(live[0].ctx, b.hook); err != nil {
		for _, r := range live {
			r.done <- batchResult{err: err}
		}
		return
	}
	ivs := make([][]float64, len(live))
	ks := make([]int, len(live))
	spans := make([]*obs.Span, len(live))
	size := strconv.Itoa(len(live))
	for i, r := range live {
		ivs[i] = r.iv
		ks[i] = r.k
		// One decoder_session span per coalesced request, in that
		// request's own trace, all covering the same shared decode call.
		_, spans[i] = obs.StartSpan(r.ctx, "decoder_session")
		spans[i].SetAttr("batch_size", size)
		spans[i].SetAttr("model_version", snap.Version)
	}
	outs := snap.Model.BeamSearchBatchK(ivs, ks)
	for _, sp := range spans {
		sp.End()
	}
	if b.met != nil {
		b.met.ObserveBatch(len(live))
		// Each decode's top log-prob is the serving-side QoR proxy,
		// attributed to the model version that produced it.
		for i := range live {
			if len(outs[i]) > 0 {
				b.met.ObserveQoR(snap.Version, outs[i][0].LogProb)
			}
		}
	}
	for i, r := range live {
		r.done <- batchResult{cands: outs[i], version: snap.Version, batchSize: len(live)}
	}
}

func (b *Batcher) reject(reason string) {
	if b.met != nil {
		b.met.ObserveRejection(reason)
	}
}
