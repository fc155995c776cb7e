package serve

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/nn"
	"insightalign/internal/retrieve"
)

// CacheBenchOptions parameterize RunCacheBench.
type CacheBenchOptions struct {
	// Model is the served architecture; zero means a mid-size default
	// (full recipe space, reduced widths) sized so one decode is
	// decisively more expensive than one cache hit.
	Model core.Config
	// Designs is the distinct-design pool, Clients/Requests the load per
	// phase, ZipfS the hot-key skew (must be > 1 to engage).
	Designs  int
	Clients  int
	Requests int
	ZipfS    float64
	// BeamWidth is sent with every request.
	BeamWidth int
	// Seed drives the model init, the insight pool, and the Zipf streams.
	Seed int64
}

// DefaultCacheBenchOptions returns the `make bench-retrieve` workload: a
// small hot working set under strong Zipf skew, enough requests that the
// steady state is cache-dominated.
func DefaultCacheBenchOptions() CacheBenchOptions {
	// Wide enough that a decode is decisively more expensive than the
	// HTTP+JSON overhead a cache hit still pays; the speedup column would
	// otherwise be dominated by scheduler noise on small machines.
	cfg := core.DefaultConfig()
	cfg.EmbedDim = 96
	cfg.FFHidden = 192
	return CacheBenchOptions{
		Model:     cfg,
		Designs:   32,
		Clients:   8,
		Requests:  600,
		ZipfS:     1.5,
		BeamWidth: 5,
		Seed:      1,
	}
}

// CacheBenchResult is the measured effect of the retrieval response cache
// on serving latency, plus the hot-swap staleness check.
type CacheBenchResult struct {
	Designs   int     `json:"designs"`
	ZipfS     float64 `json:"zipf_s"`
	BeamWidth int     `json:"beam_width"`

	// Fill is the first Zipf-skewed pass: every distinct design misses
	// once and decodes, so its uncached percentiles are the decoder-path
	// cost. Load replays the exact same deterministic request streams, so
	// it runs cache-dominated — the steady state for a hot working set —
	// and supplies the cached percentiles and HitRatio.
	Fill          LoadGenResult `json:"fill"`
	Load          LoadGenResult `json:"load"`
	HitRatio      float64       `json:"hit_ratio"`
	CachedP50MS   float64       `json:"cached_p50_ms"`
	CachedP99MS   float64       `json:"cached_p99_ms"`
	UncachedP50MS float64       `json:"uncached_p50_ms"`
	UncachedP99MS float64       `json:"uncached_p99_ms"`
	// SpeedupP99 is UncachedP99MS / CachedP99MS — how much cheaper a hot
	// design is than a decoder-path request at the tail.
	SpeedupP99 float64 `json:"speedup_p99"`

	// Hot-swap phase: the model is reloaded mid-run (new version, same
	// weights), then the same workload replays. Every response — cached
	// or not — must carry the new version; StaleAfterReload counts
	// violations and must be 0.
	PreReloadVersion  string        `json:"pre_reload_version"`
	PostReloadVersion string        `json:"post_reload_version"`
	PostReload        LoadGenResult `json:"post_reload"`
	StaleAfterReload  int           `json:"stale_after_reload"`
}

// RunCacheBench boots an in-process cache-enabled server over a fresh
// model saved to disk (so /v1/models/reload works), drives a Zipf-skewed
// hot-key workload through it, hot-swaps the model, and replays the
// workload checking that not one response carries the old version.
func RunCacheBench(ctx context.Context, opt CacheBenchOptions) (CacheBenchResult, error) {
	if opt.Designs < 1 || opt.Clients < 1 || opt.Requests < 1 {
		d := DefaultCacheBenchOptions()
		if opt.Designs < 1 {
			opt.Designs = d.Designs
		}
		if opt.Clients < 1 {
			opt.Clients = d.Clients
		}
		if opt.Requests < 1 {
			opt.Requests = d.Requests
		}
	}
	if opt.ZipfS <= 1 {
		opt.ZipfS = 1.5
	}
	if opt.BeamWidth < 1 {
		opt.BeamWidth = 5
	}
	if opt.Model.NumRecipes == 0 {
		opt.Model = DefaultCacheBenchOptions().Model
	}
	res := CacheBenchResult{Designs: opt.Designs, ZipfS: opt.ZipfS, BeamWidth: opt.BeamWidth}

	// A fresh model saved to a temp file, so Reload() has a file to
	// re-read (each install mints a new version even for identical bytes).
	dir, err := os.MkdirTemp("", "cachebench")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	mcfg := opt.Model
	mcfg.Seed = opt.Seed
	m, err := core.New(mcfg)
	if err != nil {
		return res, err
	}
	path := filepath.Join(dir, "model.bin")
	if err := nn.SaveParamsFile(path, m.Params()); err != nil {
		return res, err
	}
	reg, err := NewRegistry(mcfg)
	if err != nil {
		return res, err
	}
	if _, err := reg.LoadFile(path); err != nil {
		return res, err
	}

	cfg := DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.Model = mcfg
	cfg.Cache = retrieve.NewCache(retrieve.DefaultCacheSize)
	cfg.DefaultBeamWidth = opt.BeamWidth
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := New(cfg, reg)
	if err != nil {
		return res, err
	}
	errc, err := srv.Start()
	if err != nil {
		return res, err
	}
	defer func() {
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shCtx)
		<-errc
	}()
	base := "http://" + srv.Addr()
	res.PreReloadVersion = reg.Version()

	lg := DefaultLoadGenOptions()
	lg.URL = base
	lg.Clients = opt.Clients
	lg.Requests = opt.Requests
	lg.BeamWidth = opt.BeamWidth
	lg.InsightDim = mcfg.InsightDim
	lg.Seed = opt.Seed
	lg.Designs = opt.Designs
	lg.ZipfS = opt.ZipfS

	// Fill pass: the Zipf streams are deterministic, so this pass decodes
	// every design the measured pass will ask for. Its uncached side is
	// the decoder-path latency.
	res.Fill, err = RunLoadGen(ctx, lg)
	if err != nil {
		return res, fmt.Errorf("cache bench fill phase: %w", err)
	}
	// Measured pass: identical streams replay against the filled cache.
	res.Load, err = RunLoadGen(ctx, lg)
	if err != nil {
		return res, fmt.Errorf("cache bench load phase: %w", err)
	}
	res.HitRatio = res.Load.CacheHitRatio
	res.CachedP50MS = res.Load.CachedP50MS
	res.CachedP99MS = res.Load.CachedP99MS
	res.UncachedP50MS = res.Fill.UncachedP50MS
	res.UncachedP99MS = res.Fill.UncachedP99MS
	if res.CachedP99MS > 0 {
		res.SpeedupP99 = res.UncachedP99MS / res.CachedP99MS
	}

	// Hot swap through the HTTP handler, then replay the exact same
	// workload expecting the new version on every response.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/models/reload", strings.NewReader(""))
	if err != nil {
		return res, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return res, fmt.Errorf("cache bench reload: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("cache bench reload: HTTP %d", resp.StatusCode)
	}
	res.PostReloadVersion = reg.Version()
	if res.PostReloadVersion == res.PreReloadVersion {
		return res, fmt.Errorf("cache bench reload did not change the version (%s)", res.PreReloadVersion)
	}

	lg.ExpectVersion = res.PostReloadVersion
	res.PostReload, err = RunLoadGen(ctx, lg)
	if err != nil {
		return res, fmt.Errorf("cache bench post-reload phase: %w", err)
	}
	res.StaleAfterReload = res.PostReload.StaleResponses
	return res, nil
}
