package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"insightalign/internal/core"
)

// FuzzRecommendBody drives Server.Handler() with arbitrary request bodies
// on /v1/recommend and /v1/recommend/batch. With a model loaded, every
// body must be answered 200 (decoded) or 400 (rejected by JSON decoding or
// validation) — never a panic, and never a 5xx or 429 leaking out of a
// malformed input. Crashes land in internal/serve/testdata/fuzz/.
func FuzzRecommendBody(f *testing.F) {
	cfg := DefaultConfig()
	cfg.Model = smallCfg()
	cfg.BatchWindow = time.Millisecond
	cfg.Logger = quietLogger()
	reg, err := NewRegistry(cfg.Model)
	if err != nil {
		f.Fatal(err)
	}
	m, err := core.New(cfg.Model)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := reg.SetModel(m, "fuzz"); err != nil {
		f.Fatal(err)
	}
	s, err := New(cfg, reg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()

	iv := "[" + strings.TrimSuffix(strings.Repeat("0.5,", cfg.Model.InsightDim), ",") + "]"
	for _, seed := range []struct {
		batch bool
		body  string
	}{
		{false, `{"insight":` + iv + `}`},
		{false, `{"insight":` + iv + `,"beam_width":3}`},
		{false, `{"insight":` + iv + `,"beam_width":1000000}`},
		{false, `{"insight":` + iv + `,"beam_width":-1}`},
		{false, `{"insight":[1,2,3]}`},
		{false, `{"insight":` + iv + `,"intention":"x"}`},
		{false, `{"insight":[1e308,-1e308]}`},
		{false, ``},
		{false, `null`},
		{false, `{"insight":`},
		{true, `{"requests":[{"insight":` + iv + `},{"insight":` + iv + `,"beam_width":2}]}`},
		{true, `{"requests":[]}`},
		{true, `{"requests":[{"insight":[]}]}`},
		{true, `{"requests":null}`},
	} {
		f.Add(seed.batch, []byte(seed.body))
	}

	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path := "/v1/recommend"
		if batch {
			path = "/v1/recommend/batch"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("POST %s %q: status %d, want 200 or 400; body %s", path, body, rec.Code, rec.Body.Bytes())
		}
	})
}
