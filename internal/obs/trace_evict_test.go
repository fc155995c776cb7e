package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// finishTrace roots and immediately ends one trace on tr, returning its ID.
func finishTrace(tr *Tracer, name string) string {
	ctx := WithTracer(context.Background(), tr)
	_, sp := StartSpan(ctx, name)
	id := sp.TraceID()
	sp.End()
	return id
}

// joinRemote finalizes a second record under an existing trace ID — the
// replica-side half of a router→replica hop.
func joinRemote(tr *Tracer, traceID, name string) {
	ctx := WithRemoteTraceID(context.Background(), tr, traceID)
	_, sp := StartSpan(ctx, name)
	sp.End()
}

// TestTraceRingEvictionBoundary fills the ring to capacity and asserts
// the oldest record is evicted exactly when the ring overflows — not one
// push early, not one late — and that eviction is remembered.
func TestTraceRingEvictionBoundary(t *testing.T) {
	const ringSz = 4
	tr := NewTracer(ringSz)
	ids := make([]string, 0, ringSz+1)
	for i := 0; i < ringSz; i++ {
		ids = append(ids, finishTrace(tr, fmt.Sprintf("op%d", i)))
	}
	// At capacity: everything still resolvable, nothing evicted.
	for _, id := range ids {
		if tr.Lookup(id) == nil {
			t.Fatalf("trace %s missing at capacity", id)
		}
		if tr.Evicted(id) {
			t.Fatalf("trace %s reported evicted while still in the ring", id)
		}
	}
	// One past capacity: exactly the oldest goes.
	ids = append(ids, finishTrace(tr, "overflow"))
	if tr.Lookup(ids[0]) != nil {
		t.Fatalf("oldest trace %s survived overflow", ids[0])
	}
	if !tr.Evicted(ids[0]) {
		t.Fatalf("oldest trace %s not remembered as evicted", ids[0])
	}
	for _, id := range ids[1:] {
		if tr.Lookup(id) == nil {
			t.Fatalf("survivor %s evicted early", id)
		}
		if tr.Evicted(id) {
			t.Fatalf("survivor %s misreported as evicted", id)
		}
	}
}

// TestTraceHandlerGoneVsNotFound drives /debug/traces?id= through the
// three terminal cases: live (200), evicted (410 + hint), unknown (404).
func TestTraceHandlerGoneVsNotFound(t *testing.T) {
	tr := NewTracer(2)
	old := finishTrace(tr, "old")
	live1 := finishTrace(tr, "live1")
	live2 := finishTrace(tr, "live2") // evicts old
	get := func(id string) (int, map[string]string) {
		rec := httptest.NewRecorder()
		tr.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?id="+id, nil))
		var body map[string]string
		json.Unmarshal(rec.Body.Bytes(), &body)
		return rec.Code, body
	}
	if code, _ := get(live1); code != http.StatusOK {
		t.Fatalf("live trace %s: %d, want 200", live1, code)
	}
	if code, _ := get(live2); code != http.StatusOK {
		t.Fatalf("live trace %s: %d, want 200", live2, code)
	}
	code, body := get(old)
	if code != http.StatusGone {
		t.Fatalf("evicted trace %s: %d, want 410", old, code)
	}
	if !strings.Contains(body["hint"], "ring") {
		t.Fatalf("410 carries no eviction hint: %v", body)
	}
	if code, _ := get("ffffffffffffffff"); code != http.StatusNotFound {
		t.Fatalf("unknown trace: %d, want 404", code)
	}
}

// TestLookupMergedAfterPartialEviction builds a cross-hop trace (two
// records under one ID), evicts the older record, and asserts
// LookupMerged still resolves the survivor — a partially evicted trace
// degrades to the hops the ring kept, never to a 404.
func TestLookupMergedAfterPartialEviction(t *testing.T) {
	tr := NewTracer(2)
	id := finishTrace(tr, "router-hop")
	joinRemote(tr, id, "replica-hop") // ring: [router-hop, replica-hop] under one ID
	if got := len(tr.LookupAll(id)); got != 2 {
		t.Fatalf("cross-hop records = %d, want 2", got)
	}
	finishTrace(tr, "unrelated") // evicts the router-hop record
	recs := tr.LookupAll(id)
	if len(recs) != 1 || recs[0].Root != "replica-hop" {
		t.Fatalf("survivor records = %+v, want only replica-hop", recs)
	}
	merged := tr.LookupMerged(id)
	if merged == nil || merged.Root != "replica-hop" || len(merged.Spans) != 1 {
		t.Fatalf("LookupMerged after partial eviction = %+v", merged)
	}
	// The ID is both live (survivor) and in the eviction memory (dropped
	// hop); the handler must prefer the live record.
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?id="+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("partially evicted trace served %d, want 200", rec.Code)
	}
}

// TestTraceRingEvictionRace hammers a tiny ring from 16 goroutines that
// finish traces, join remote records, and read every lookup surface
// concurrently — the -race guard for the eviction bookkeeping. A just
// finished trace must serve 200 (live) or 410 (evicted). 404 is legitimate
// only once the bounded eviction memory has provably forgotten the ID:
// more than maxEvictedIDs IDs remembered since before the trace finished,
// which a goroutine descheduled under churn can see.
func TestTraceRingEvictionRace(t *testing.T) {
	tr := NewTracer(8)
	const goroutines = 16
	const iters = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				seq0 := tr.evictedCount()
				id := finishTrace(tr, fmt.Sprintf("g%d-i%d", g, i))
				if i%3 == 0 {
					joinRemote(tr, id, "hop")
				}
				tr.Lookup(id)
				tr.LookupMerged(id)
				tr.Evicted(id)
				if i%10 == 0 {
					tr.Recent(4)
					rec := httptest.NewRecorder()
					tr.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?id="+id, nil))
					if rec.Code == http.StatusNotFound {
						since := tr.evictedCount() - seq0
						if since > maxEvictedIDs {
							continue // provably aged out of the eviction memory
						}
						t.Errorf("goroutine %d iter %d: 404 with only %d IDs evicted since", g, i, since)
						return
					}
					if rec.Code != http.StatusOK && rec.Code != http.StatusGone {
						t.Errorf("goroutine %d iter %d: status %d", g, i, rec.Code)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Everything old enough must have landed in the eviction memory, and
	// the memory itself stays bounded.
	tr.mu.Lock()
	evicted, order := len(tr.evicted), len(tr.evictedOrder)
	tr.mu.Unlock()
	if evicted == 0 {
		t.Fatal("no evictions recorded under churn")
	}
	if evicted > maxEvictedIDs || order > maxEvictedIDs {
		t.Fatalf("eviction memory unbounded: set=%d order=%d cap=%d", evicted, order, maxEvictedIDs)
	}
}

// evictedCount reads the tracer's running count of remembered IDs.
func (t *Tracer) evictedCount() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evictedTotal
}
