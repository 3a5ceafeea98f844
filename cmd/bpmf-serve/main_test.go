package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/config"
	"repro/internal/rng"
	"repro/internal/serve"
)

// testCkpt trains a tiny model and writes its checkpoint, exercising
// the same trainer path a real deployment uses. seed varies the chain
// so two checkpoints can hold genuinely different posteriors.
func testCkpt(t *testing.T, dir, name string, seed uint64) (string, bpmf.Config) {
	t.Helper()
	ratings := []bpmf.Rating{
		{User: 0, Item: 0, Value: 5}, {User: 0, Item: 1, Value: 4},
		{User: 1, Item: 0, Value: 4}, {User: 1, Item: 2, Value: 2},
		{User: 2, Item: 1, Value: 5}, {User: 2, Item: 2, Value: 1},
	}
	data, err := bpmf.DataFromRatings(3, 3, ratings, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bpmf.Defaults()
	cfg.K = 2
	cfg.Iters = 4
	cfg.Burnin = 2
	cfg.Seed = seed
	ckpt := filepath.Join(dir, name)
	f, err := os.Create(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bpmf.TrainWithCheckpoint(data, cfg, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return ckpt, cfg
}

// testRegistry opens a single-model registry over a fresh checkpoint,
// the way main() synthesizes one from classic single-model flags.
func testRegistry(t *testing.T) *serve.Registry {
	t.Helper()
	ckpt, cfg := testCkpt(t, t.TempDir(), "model.ckpt", 42)
	reg, err := serve.NewRegistry([]serve.ModelSpec{
		{Name: "default", Path: ckpt, Opts: serve.Options{Alpha: cfg.Alpha}},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg.EnableBatching(serve.DefaultBatchOptions())
	t.Cleanup(func() { reg.Close() })
	return reg
}

// TestReloadRequiresPOST pins the /reload method guard: reload mutates
// server state, so GET (and friends) must get 405 without triggering a
// snapshot swap, while POST still reloads. Both the legacy route and
// the versioned per-model route share the guard.
func TestReloadRequiresPOST(t *testing.T) {
	reg := testRegistry(t)
	mux := newMux(reg)
	srv, _ := reg.Get("default")
	base := srv.Reloads.Load() // the initial Open counts as the first load

	for _, path := range []string{"/reload", "/v1/default/reload"} {
		for _, method := range []string{http.MethodGet, http.MethodHead, http.MethodPut, http.MethodDelete} {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want %d", method, path, rec.Code, http.StatusMethodNotAllowed)
			}
			if allow := rec.Header().Get("Allow"); allow != http.MethodPost {
				t.Errorf("%s %s Allow header = %q, want POST", method, path, allow)
			}
		}
	}
	if got := srv.Reloads.Load(); got != base {
		t.Fatalf("non-POST methods triggered %d reloads", got-base)
	}

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /reload = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := srv.Reloads.Load(); got != base+1 {
		t.Fatalf("POST /reload performed %d reloads, want 1", got-base)
	}
}

// TestHealthzAndPredictStillServe is a smoke check that the extracted
// mux wires the read-only endpoints the way main always did — on both
// the legacy routes and their /v1/default/ aliases.
func TestHealthzAndPredictStillServe(t *testing.T) {
	mux := newMux(testRegistry(t))
	for _, url := range []string{
		"/healthz",
		"/predict?user=0&item=1", "/recommend?user=0&n=2",
		"/v1/default/predict?user=0&item=1", "/v1/default/recommend?user=0&n=2",
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d, body %s", url, rec.Code, rec.Body.String())
		}
	}
}

// TestUnknownModel404 pins the unknown-model contract: a request for an
// unregistered model name answers 404 with a JSON body that names the
// registered models, so a typo'd route is self-diagnosing.
func TestUnknownModel404(t *testing.T) {
	mux := newMux(testRegistry(t))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/nope/predict?user=0&item=1", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /v1/nope/predict = %d, want 404 (body %s)", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var body struct {
		Error  string   `json:"error"`
		Models []string `json:"models"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("404 body is not JSON: %v (body %s)", err, rec.Body.String())
	}
	if !strings.Contains(body.Error, "nope") {
		t.Errorf("404 error %q does not name the unknown model", body.Error)
	}
	if len(body.Models) != 1 || body.Models[0] != "default" {
		t.Errorf("404 models = %v, want [default]", body.Models)
	}
}

// TestPredictMatchesPreRegistryPath is the refactor regression pin: the
// answers served through the config-built registry must be
// bit-identical to what the pre-registry path (serve.Open on the same
// checkpoint with the same options) computes.
func TestPredictMatchesPreRegistryPath(t *testing.T) {
	ckpt, tcfg := testCkpt(t, t.TempDir(), "model.ckpt", 42)

	// Pre-refactor path: open the checkpoint directly.
	old, err := serve.Open(ckpt, serve.Options{Alpha: tcfg.Alpha})
	if err != nil {
		t.Fatal(err)
	}

	// New path: single-model config -> buildSpecs -> registry -> mux.
	cfg := config.DefaultServe()
	cfg.Model.Ckpt = ckpt
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	models, err := cfg.EffectiveModels()
	if err != nil {
		t.Fatal(err)
	}
	specs, err := buildSpecs(models, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := serve.NewRegistry(specs)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	reg.EnableBatching(serve.DefaultBatchOptions())
	mux := newMux(reg)

	for user := 0; user < 3; user++ {
		for item := 0; item < 3; item++ {
			want, err := old.Model().Predict(user, item)
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range []string{"/predict", "/v1/default/predict"} {
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
					fmt.Sprintf("%s?user=%d&item=%d", path, user, item), nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("GET %s u=%d i=%d = %d, body %s", path, user, item, rec.Code, rec.Body.String())
				}
				var got struct {
					Score float64 `json:"score"`
					Mean  float64 `json:"mean"`
					Std   float64 `json:"std"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Fatal(err)
				}
				if got.Score != want.Score || got.Mean != want.Mean || got.Std != want.Std {
					t.Errorf("%s u=%d i=%d = (%v,%v,%v), pre-registry path = (%v,%v,%v)",
						path, user, item, got.Score, got.Mean, got.Std, want.Score, want.Mean, want.Std)
				}
			}
		}
	}
}

// TestTwoModelIndependentReload pins registry isolation: reloading one
// model must not change the other's answers or reload count.
func TestTwoModelIndependentReload(t *testing.T) {
	dir := t.TempDir()
	ckptA, cfgA := testCkpt(t, dir, "a.ckpt", 1)
	ckptB, cfgB := testCkpt(t, dir, "b.ckpt", 2)
	reg, err := serve.NewRegistry([]serve.ModelSpec{
		{Name: "a", Path: ckptA, Opts: serve.Options{Alpha: cfgA.Alpha}},
		{Name: "b", Path: ckptB, Opts: serve.Options{Alpha: cfgB.Alpha}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	mux := newMux(reg)

	predict := func(model string) string {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/"+model+"/predict?user=0&item=2", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/%s/predict = %d, body %s", model, rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	beforeA, beforeB := predict("a"), predict("b")
	if beforeA == beforeB {
		t.Fatal("models a and b serve identical answers; the two-chain setup is broken")
	}

	// Retrain model a under a different seed and hot-reload only it.
	retrained, _ := testCkpt(t, dir, "a2.ckpt", 3)
	blob, err := os.ReadFile(retrained)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckptA, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	srvA, _ := reg.Get("a")
	srvB, _ := reg.Get("b")
	baseB := srvB.Reloads.Load()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/a/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/a/reload = %d, body %s", rec.Code, rec.Body.String())
	}
	if srvA.Reloads.Load() != 2 {
		t.Errorf("model a reloads = %d, want 2 (open + explicit reload)", srvA.Reloads.Load())
	}
	if srvB.Reloads.Load() != baseB {
		t.Errorf("reloading model a bumped model b's reload count")
	}
	if got := predict("a"); got == beforeA {
		t.Error("model a serves the same answers after reloading a retrained chain")
	}
	if got := predict("b"); got != beforeB {
		t.Errorf("model b's answers changed when model a reloaded:\n before %s after %s", beforeB, got)
	}
}

// rateLimitedRegistry opens a single-model registry whose admission
// control allows one request per client, then sheds.
func rateLimitedRegistry(t *testing.T) *serve.Registry {
	t.Helper()
	ckpt, cfg := testCkpt(t, t.TempDir(), "model.ckpt", 42)
	reg, err := serve.NewRegistry([]serve.ModelSpec{
		{Name: "default", Path: ckpt, Opts: serve.Options{Alpha: cfg.Alpha}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	opts := serve.DefaultBatchOptions()
	opts.Rate, opts.Burst = 0.001, 1
	reg.EnableBatching(opts)
	return reg
}

// TestRateLimitSheds429WithRetryAfter pins the admission-control
// surface: a client over its rate gets 429 with a Retry-After hint and
// a JSON error body, per client — another client is still served.
func TestRateLimitSheds429WithRetryAfter(t *testing.T) {
	mux := newMux(rateLimitedRegistry(t))
	get := func(remote, path string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.RemoteAddr = remote
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec
	}
	if rec := get("10.0.0.1:555", "/predict?user=0&item=1"); rec.Code != http.StatusOK {
		t.Fatalf("first request = %d, body %s", rec.Code, rec.Body.String())
	}
	rec := get("10.0.0.1:666", "/recommend?user=0&n=2") // same host, new port: same bucket
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("429 without a Retry-After header")
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("429 Content-Type = %q, want application/json", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Errorf("429 body not a JSON error: %v (%s)", err, rec.Body.String())
	}
	if rec := get("10.0.0.2:555", "/predict?user=0&item=1"); rec.Code != http.StatusOK {
		t.Errorf("other client shed too: %d (body %s)", rec.Code, rec.Body.String())
	}
}

// postFoldIn sends one /foldin body and returns the recorder.
func postFoldIn(mux *http.ServeMux, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/foldin", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

// TestFoldInBodyHygiene pins the request-body satellite: oversized
// bodies get 413, unknown fields and trailing garbage get 400, and a
// well-formed body still works.
func TestFoldInBodyHygiene(t *testing.T) {
	mux := newMux(testRegistry(t))

	if rec := postFoldIn(mux, `{"items":[0,1],"values":[5,4],"key":1,"n":2}`); rec.Code != http.StatusOK {
		t.Fatalf("well-formed foldin = %d, body %s", rec.Code, rec.Body.String())
	}
	if rec := postFoldIn(mux, `{"items":[0],"values":[5],"key":1,"frobnicate":true}`); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown field = %d, want 400 (body %s)", rec.Code, rec.Body.String())
	}
	if rec := postFoldIn(mux, `{"items":[0],"values":[5],"key":1} {"sneaky":1}`); rec.Code != http.StatusBadRequest {
		t.Errorf("trailing garbage = %d, want 400 (body %s)", rec.Code, rec.Body.String())
	}
	huge := `{"items":[0],"values":[5],"key":1,"n":0` + strings.Repeat(" ", maxFoldInBody) + `}`
	if rec := postFoldIn(mux, huge); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413 (body %s)", rec.Code, rec.Body.String())
	}
}

// TestStatusOfShed pins the error → status mapping for admission sheds.
func TestStatusOfShed(t *testing.T) {
	if s := statusOf(&serve.Shed{RateLimited: true}); s != http.StatusTooManyRequests {
		t.Errorf("rate-limit shed = %d, want 429", s)
	}
	if s := statusOf(&serve.Shed{}); s != http.StatusServiceUnavailable {
		t.Errorf("overload shed = %d, want 503", s)
	}
	if s := statusOf(fmt.Errorf("wrapped: %w", &serve.Shed{})); s != http.StatusServiceUnavailable {
		t.Errorf("wrapped shed = %d, want 503", s)
	}
}

// TestTypedResponsesMatchMapEncoding pins the typed /predict and
// /recommend bodies byte for byte against the map[string]any encoding
// the handlers used to send, over a seeded sample of queries on a model
// trained from seeded random ratings.
func TestTypedResponsesMatchMapEncoding(t *testing.T) {
	const users, items = 40, 30
	stream := rng.New(7)
	var ratings []bpmf.Rating
	for i := 0; i < 400; i++ {
		ratings = append(ratings, bpmf.Rating{User: stream.Intn(users), Item: stream.Intn(items),
			Value: float64(1 + stream.Intn(5))})
	}
	data, err := bpmf.DataFromRatings(users, items, ratings, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bpmf.Defaults()
	cfg.K, cfg.Iters, cfg.Burnin, cfg.Seed = 3, 4, 2, 7
	ckpt := filepath.Join(t.TempDir(), "model.ckpt")
	f, err := os.Create(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bpmf.TrainWithCheckpoint(data, cfg, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	reg, err := serve.NewRegistry([]serve.ModelSpec{
		{Name: "default", Path: ckpt, Opts: serve.Options{Alpha: cfg.Alpha}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	reg.EnableBatching(serve.DefaultBatchOptions())
	mux := newMux(reg)
	srv, _ := reg.Get("default")
	m := srv.Model()

	mapBody := func(v map[string]any) string {
		var b strings.Builder
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	get := func(url string) string {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	for i := 0; i < 60; i++ {
		user, item := stream.Intn(users), stream.Intn(items)
		p, err := m.Predict(user, item)
		if err != nil {
			t.Fatal(err)
		}
		want := mapBody(map[string]any{
			"user": user, "item": item,
			"score": p.Score, "mean": p.Mean, "std": p.Std, "posterior": p.Posterior,
		})
		if got := get(fmt.Sprintf("/v1/default/predict?user=%d&item=%d", user, item)); got != want {
			t.Fatalf("predict %d,%d:\n got %s\nwant %s", user, item, got, want)
		}
	}
	for i := 0; i < 30; i++ {
		user, n := stream.Intn(users), 1+stream.Intn(12)
		top, err := m.Recommend(user, n)
		if err != nil {
			t.Fatal(err)
		}
		list := make([]map[string]any, len(top))
		for k, it := range top {
			list[k] = map[string]any{"item": it.Index, "score": it.Score}
		}
		want := mapBody(map[string]any{"user": user, "items": list})
		if got := get(fmt.Sprintf("/v1/default/recommend?user=%d&n=%d", user, n)); got != want {
			t.Fatalf("recommend %d n=%d:\n got %s\nwant %s", user, n, got, want)
		}
	}
}
