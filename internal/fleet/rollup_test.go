package fleet

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"insightalign/internal/obs/slo"
)

func TestAddReplicaLabel(t *testing.T) {
	cases := []struct{ line, id, want string }{
		{`m_total{route="/v1/recommend"} 3`, "http://a:1",
			`m_total{replica="http://a:1",route="/v1/recommend"} 3`},
		{`m_total 7`, "http://a:1", `m_total{replica="http://a:1"} 7`},
		{`m_bucket{le="0.1"} 3 # {trace_id="00ff"} 0.06`, "r1",
			`m_bucket{replica="r1",le="0.1"} 3 # {trace_id="00ff"} 0.06`},
		{`# HELP m_total help`, "r1", `# HELP m_total help`},
		{``, "r1", ``},
		{`m_total{a="b"} 1`, `evil"id\`, `m_total{replica="evil\"id\\",a="b"} 1`},
	}
	for _, tc := range cases {
		if got := addReplicaLabel(tc.line, tc.id); got != tc.want {
			t.Errorf("addReplicaLabel(%q, %q)\n got %q\nwant %q", tc.line, tc.id, got, tc.want)
		}
	}
}

// metricsStub is a stub replica that also serves a realistic /metrics
// page, so the roll-up endpoints have something to merge.
func metricsStub(version string) *stubReplica {
	s := newStubReplica(okRecommend)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		io.WriteString(w, strings.Join([]string{
			"# HELP insightalign_requests_total Completed HTTP requests by route and status code.",
			"# TYPE insightalign_requests_total counter",
			`insightalign_requests_total{route="/v1/recommend",code="200"} 5`,
			"# HELP insightalign_model_info Currently served model version (value is always 1).",
			"# TYPE insightalign_model_info gauge",
			`insightalign_model_info{version="` + version + `"} 1`,
			"# HELP insightalign_queue_depth Requests waiting in the admission queue.",
			"# TYPE insightalign_queue_depth gauge",
			"insightalign_queue_depth 2",
			"",
		}, "\n"))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.hits.Add(1)
		s.serve(w, r)
	})
	s.srv.Close()
	s.srv = httptest.NewServer(mux)
	return s
}

// TestFleetMetricsRollup scrapes two live replicas plus one dead one
// through /debug/fleet and asserts per-replica labelling, HELP/TYPE
// dedup, and the scrape-status family.
func TestFleetMetricsRollup(t *testing.T) {
	a := metricsStub("v1-aaaa")
	defer a.srv.Close()
	b := metricsStub("v2-bbbb")
	defer b.srv.Close()
	dead := newStubReplica(okRecommend)
	dead.srv.Close() // configured but unreachable

	cfg := DefaultConfig()
	rt := testRouter(t, cfg, a.srv.URL, b.srv.URL, dead.srv.URL)

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/fleet", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/fleet: %d", rec.Code)
	}
	page := rec.Body.String()

	for _, rep := range []string{a.srv.URL, b.srv.URL} {
		want := `insightalign_requests_total{replica="` + rep + `",route="/v1/recommend",code="200"} 5`
		if !strings.Contains(page, want) {
			t.Fatalf("merged page missing %q:\n%s", want, page)
		}
	}
	// HELP/TYPE emitted once despite two replicas carrying the family.
	if n := strings.Count(page, "# HELP insightalign_requests_total"); n != 1 {
		t.Fatalf("HELP deduplication: %d copies", n)
	}
	// The dead replica is visible as a failed scrape, not silently absent.
	if !strings.Contains(page, `insightalign_fleet_scrape_up{replica="`+dead.srv.URL+`"} 0`) {
		t.Fatalf("dead replica not reported:\n%s", grepPage(page, "scrape_up"))
	}
	if !strings.Contains(page, `insightalign_fleet_scrape_up{replica="`+a.srv.URL+`"} 1`) {
		t.Fatalf("live replica not reported up:\n%s", grepPage(page, "scrape_up"))
	}
}

// TestFleetDashboard renders /debug/dash and asserts the per-replica
// rows, the version mix, and the SLO verdict table are all present.
func TestFleetDashboard(t *testing.T) {
	a := metricsStub("v1-aaaa")
	defer a.srv.Close()
	b := metricsStub("v2-bbbb")
	defer b.srv.Close()

	cfg := DefaultConfig()
	rt := testRouter(t, cfg, a.srv.URL, b.srv.URL)

	// Route a couple of requests so the SLO table has aggregate and
	// per-replica scopes.
	h := rt.Handler()
	for i := 0; i < 4; i++ {
		if w := postRecommend(t, h, recommendBody(float64(i), 0.5, 1)); w.Code != http.StatusOK {
			t.Fatalf("request %d: %d", i, w.Code)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/dash", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/dash: %d", rec.Code)
	}
	dash := rec.Body.String()
	for _, want := range []string{
		"REPLICA", a.srv.URL, b.srv.URL, // replica rows
		"v1-aaaa", "v2-bbbb", "version mix", // version mix section
		"OBJECTIVE", "availability", slo.AggregateScope, // SLO table
	} {
		if !strings.Contains(dash, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, dash)
		}
	}
}

// TestFleetSLOScopes drives mixed outcomes through the router and
// asserts /debug/slo carries the aggregate plus per-replica scopes, and
// that end-to-end failover keeps the aggregate clean while the failing
// replica's own scope burns.
func TestFleetSLOScopes(t *testing.T) {
	good := newStubReplica(okRecommend)
	defer good.srv.Close()
	bad := newStubReplica(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	defer bad.srv.Close()

	cfg := DefaultConfig()
	cfg.Breaker.Disabled = true
	cfg.SLO = slo.New(slo.Config{Objectives: []slo.Objective{{
		Name: "availability", Kind: slo.Availability, Target: 0.9,
		FastWindow: time.Second, SlowWindow: 12 * time.Second,
		PageBurn: 5, WarnBurn: 2,
	}}})
	rt := testRouter(t, cfg, good.srv.URL, bad.srv.URL)
	h := rt.Handler()

	// Spread keys so both replicas own traffic; failover turns the bad
	// replica's 500s into client-visible 200s from the good one.
	okCount := 0
	for i := 0; i < 40; i++ {
		w := postRecommend(t, h, recommendBody(float64(i), float64(i%5), 2))
		if w.Code == http.StatusOK {
			okCount++
		}
	}
	if okCount != 40 {
		t.Fatalf("failover incomplete: %d/40 ok", okCount)
	}

	rep := rt.slo.Report()
	scopes := map[string]slo.Verdict{}
	for _, v := range rep.Verdicts {
		scopes[v.Scope] = v
	}
	agg, ok := scopes[slo.AggregateScope]
	if !ok {
		t.Fatalf("no aggregate scope: %+v", rep.Verdicts)
	}
	if agg.SlowTotal == 0 || agg.SlowGood != agg.SlowTotal {
		t.Fatalf("aggregate burned despite failover: %+v", agg)
	}
	badScope, ok := scopes[bad.srv.URL]
	if !ok {
		t.Fatalf("no per-replica scope for %s: %v", bad.srv.URL, scopes)
	}
	if badScope.SlowTotal == 0 || badScope.SlowGood == badScope.SlowTotal {
		t.Fatalf("failing replica's scope shows no burn: %+v", badScope)
	}
}

func grepPage(page, substr string) string {
	var out bytes.Buffer
	for _, ln := range strings.Split(page, "\n") {
		if strings.Contains(ln, substr) {
			out.WriteString(ln)
			out.WriteByte('\n')
		}
	}
	return out.String()
}
