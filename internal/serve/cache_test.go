package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"insightalign/internal/core"
	"insightalign/internal/obs"
	"insightalign/internal/retrieve"
)

func cacheConfig() Config {
	cfg := e2eConfig()
	cfg.Cache = retrieve.NewCache(retrieve.DefaultCacheSize)
	cfg.Metrics = obs.NewRegistry() // isolated, so counter assertions are exact
	return cfg
}

func recommendOnce(t *testing.T, url string, iv []float64, k int) RecommendResponse {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/recommend", RecommendRequest{Insight: iv, BeamWidth: k})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var rr RecommendResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	return rr
}

// assertColdDecode fails unless a cache miss returned exactly
// core.Model.BeamSearch of its insight: the same sets in the same order
// with bit-equal log-probs.
func assertColdDecode(t *testing.T, got RecommendResponse, ref *core.Model, iv []float64, k int) {
	t.Helper()
	if got.Cached {
		t.Fatal("expected a cache miss, got a cached response")
	}
	want := ref.BeamSearch(iv, k)
	if len(got.Candidates) != len(want) {
		t.Fatalf("%d candidates, want %d", len(got.Candidates), len(want))
	}
	for i, c := range got.Candidates {
		if c.Recipes != want[i].Set.String() || math.Float64bits(c.LogProb) != math.Float64bits(want[i].LogProb) {
			t.Fatalf("candidate %d: %s (%v), want %s (%v)", i, c.Recipes, c.LogProb, want[i].Set.String(), want[i].LogProb)
		}
	}
}

// TestServeCacheHitPath is the serving-tier E2E for the retrieval cache:
// a miss decodes exactly as cold BeamSearch does — even after a run of
// neighbouring insights has been served, so an answer never depends on
// traffic history — the repeat is answered from the cache with identical
// candidates and no decoder call, a different beam width misses (the
// width is part of the key), and the hit/miss metrics land in the
// isolated registry.
func TestServeCacheHitPath(t *testing.T) {
	cfg := cacheConfig()
	// Paper-sized model: over 40 recipes the K-beam is not exact, so any
	// answer that leaked from earlier traffic could outscore a cold
	// candidate and would show up below.
	cfg.Model = core.DefaultConfig()
	ts, s, ref, _ := newTestServer(t, cfg)

	rng := rand.New(rand.NewSource(41))
	iv := make([]float64, cfg.Model.InsightDim)
	for j := range iv {
		iv[j] = rng.NormFloat64()
	}

	const neighbours = 8
	for n := 0; n < neighbours; n++ {
		nb := make([]float64, len(iv))
		for j := range nb {
			nb[j] = iv[j] + 0.1*rng.NormFloat64()
		}
		assertColdDecode(t, recommendOnce(t, ts.URL, nb, 5), ref, nb, 5)
	}

	first := recommendOnce(t, ts.URL, iv, 5)
	assertColdDecode(t, first, ref, iv, 5)

	second := recommendOnce(t, ts.URL, iv, 5)
	if !second.Cached {
		t.Fatal("repeat request was not served from the cache")
	}
	if second.BatchSize != 0 {
		t.Fatalf("cached response BatchSize = %d, want 0", second.BatchSize)
	}
	if second.ModelVersion != first.ModelVersion {
		t.Fatalf("cached version %s != original %s", second.ModelVersion, first.ModelVersion)
	}
	if !reflect.DeepEqual(second.Candidates, first.Candidates) {
		t.Fatal("cached candidates differ from the original decode")
	}
	if second.TraceID == "" || second.TraceID == first.TraceID {
		t.Fatalf("cached response must carry its own trace ID (got %q, first %q)", second.TraceID, first.TraceID)
	}

	// A different beam width is a different key.
	assertColdDecode(t, recommendOnce(t, ts.URL, iv, 3), ref, iv, 3)
	assertColdDecode(t, recommendOnce(t, ts.URL, iv, 1), ref, iv, 1)

	// Non-finite vectors bypass the cache (sentinel aliasing). JSON can't
	// carry ±Inf so this is exercised through the in-process entry point.
	bad := append([]float64{}, iv...)
	bad[0] = math.Inf(1)
	for i := 0; i < 2; i++ {
		r, code, err := s.recommend(context.Background(), &RecommendRequest{Insight: bad, BeamWidth: 5})
		if err != nil || code != http.StatusOK {
			t.Fatalf("non-finite insight decode failed: code=%d err=%v", code, err)
		}
		if r.Cached {
			t.Fatalf("non-finite insight request %d must bypass the cache", i)
		}
	}

	exp := s.Metrics().Exposition()
	for _, wantLine := range []string{
		`insightalign_serve_cache_requests_total{result="hit"} 1`,
		fmt.Sprintf(`insightalign_serve_cache_requests_total{result="miss"} %d`, neighbours+3),
		`insightalign_serve_cache_requests_total{result="bypass"} 2`,
	} {
		if !strings.Contains(exp, wantLine) {
			t.Fatalf("metrics exposition missing %q", wantLine)
		}
	}
}

// TestServeCacheReloadNoStale: after a hot swap, not one response — in
// particular not a cached one — may carry the old model version. The
// version-stamped Get makes staleness structurally impossible; this pins
// it end to end through /v1/models/reload.
func TestServeCacheReloadNoStale(t *testing.T) {
	cfg := cacheConfig()
	ts, s, _, path := newTestServer(t, cfg)

	rng := rand.New(rand.NewSource(43))
	ivs := make([][]float64, 4)
	for i := range ivs {
		ivs[i] = make([]float64, cfg.Model.InsightDim)
		for j := range ivs[i] {
			ivs[i][j] = rng.NormFloat64()
		}
	}
	oldVersion := s.Registry().Version()
	for _, iv := range ivs {
		recommendOnce(t, ts.URL, iv, 5)
		if r := recommendOnce(t, ts.URL, iv, 5); !r.Cached || r.ModelVersion != oldVersion {
			t.Fatalf("pre-reload repeat: cached=%v version=%s, want cached under %s", r.Cached, r.ModelVersion, oldVersion)
		}
	}

	resp, body := postJSON(t, ts.URL+"/v1/models/reload", ReloadRequest{Path: path})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: HTTP %d: %s", resp.StatusCode, body)
	}
	newVersion := s.Registry().Version()
	if newVersion == oldVersion {
		t.Fatalf("reload kept version %s", oldVersion)
	}

	for _, iv := range ivs {
		r := recommendOnce(t, ts.URL, iv, 5)
		if r.Cached {
			t.Fatal("post-reload request served a stale cache entry")
		}
		if r.ModelVersion != newVersion {
			t.Fatalf("post-reload decode version %s, want %s", r.ModelVersion, newVersion)
		}
		again := recommendOnce(t, ts.URL, iv, 5)
		if !again.Cached || again.ModelVersion != newVersion {
			t.Fatalf("post-reload repeat: cached=%v version=%s, want cached under %s", again.Cached, again.ModelVersion, newVersion)
		}
	}
}

// TestServeBatchEndpointUsesCache: elements of /v1/recommend/batch share
// the same cache, and an all-cached batch releases (rather than records)
// its breaker admission — exercised here simply by asserting the cached
// flags; breaker accounting balance is covered by the breaker tests.
func TestServeBatchEndpointUsesCache(t *testing.T) {
	cfg := cacheConfig()
	ts, _, _, _ := newTestServer(t, cfg)

	rng := rand.New(rand.NewSource(47))
	iv := make([]float64, cfg.Model.InsightDim)
	for j := range iv {
		iv[j] = rng.NormFloat64()
	}
	recommendOnce(t, ts.URL, iv, 5)

	req := BatchRequest{Requests: []RecommendRequest{
		{Insight: iv, BeamWidth: 5},
		{Insight: iv, BeamWidth: 5},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/recommend/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("%d results, want 2", len(br.Results))
	}
	for i, r := range br.Results {
		if !r.Cached {
			t.Fatalf("batch element %d not served from cache", i)
		}
	}
}
