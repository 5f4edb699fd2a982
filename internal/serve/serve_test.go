package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// testBatches generates a structured graph and splits its shuffled
// edges into batches, mirroring the stream package's test harness.
func testBatches(t *testing.T, batches int, seed uint64) [][]graph.Edge {
	t.Helper()
	g, _, err := gen.Generate(gen.Spec{
		Name: "serve", Vertices: 250, Communities: 4, MinDegree: 6, MaxDegree: 25,
		Exponent: 2.5, Ratio: 6, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	r := rng.New(seed + 1)
	for i := len(edges) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
	out := make([][]graph.Edge, batches)
	for b := 0; b < batches; b++ {
		out[b] = edges[b*len(edges)/batches : (b+1)*len(edges)/batches]
	}
	return out
}

func edgesBody(edges []graph.Edge) string {
	var sb strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&sb, "%d %d\n", e.Src, e.Dst)
	}
	return sb.String()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// do performs one request and returns status + decoded JSON body.
func do(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if len(raw) > 0 && strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, out
}

func TestServiceLifecycleAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	if code, _ := do(t, "GET", ts.URL+"/healthz", ""); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	// Unknown graph → 404 everywhere.
	if code, _ := do(t, "GET", ts.URL+"/graphs/nope", ""); code != 404 {
		t.Fatalf("stats of unknown graph: %d", code)
	}
	if code, _ := do(t, "POST", ts.URL+"/graphs/nope/edges", "0 1\n"); code != 404 {
		t.Fatalf("ingest into unknown graph: %d", code)
	}
	// Bad names and bad configs are rejected.
	if code, _ := do(t, "POST", ts.URL+"/graphs/-bad", ""); code != 400 {
		t.Fatalf("bad name: %d", code)
	}
	if code, _ := do(t, "POST", ts.URL+"/graphs/g", `{"algorithm":"quantum"}`); code != 400 {
		t.Fatalf("bad algorithm: %d", code)
	}
	if code, _ := do(t, "POST", ts.URL+"/graphs/g", `{"bogus_field":1}`); code != 400 {
		t.Fatalf("unknown config field: %d", code)
	}
	// Register, duplicate, list.
	if code, _ := do(t, "POST", ts.URL+"/graphs/g", `{"seed":7}`); code != 201 {
		t.Fatalf("register: %d", code)
	}
	if code, _ := do(t, "POST", ts.URL+"/graphs/g", `{"seed":7}`); code != 409 {
		t.Fatalf("duplicate register: %d", code)
	}
	if _, body := do(t, "GET", ts.URL+"/graphs", ""); len(body["graphs"].([]any)) != 1 {
		t.Fatalf("list: %+v", body)
	}
	// Query before any batch → 409 (registered, no partition yet).
	if code, _ := do(t, "GET", ts.URL+"/graphs/g/vertices/0", ""); code != 409 {
		t.Fatalf("query before data: %d", code)
	}
	// Empty and comment-only batches are no-ops, not errors.
	if code, body := do(t, "POST", ts.URL+"/graphs/g/edges", "# nothing\n\n"); code != 200 || body["applied"] != false {
		t.Fatalf("empty batch: %d %+v", code, body)
	}
	// Malformed edge lines are 400.
	if code, _ := do(t, "POST", ts.URL+"/graphs/g/edges", "0 x\n"); code != 400 {
		t.Fatalf("malformed batch: %d", code)
	}
	// A real batch lands and queries answer.
	if code, _ := do(t, "POST", ts.URL+"/graphs/g/edges", "0 1\n1 2\n2 0\n"); code != 200 {
		t.Fatalf("ingest: %d", code)
	}
	code, body := do(t, "GET", ts.URL+"/graphs/g/vertices/2", "")
	if code != 200 || body["community"] == nil {
		t.Fatalf("vertex query: %d %+v", code, body)
	}
	if code, _ := do(t, "GET", ts.URL+"/graphs/g/vertices/99", ""); code != 404 {
		t.Fatalf("unseen vertex: %d", code)
	}
	if code, _ := do(t, "GET", ts.URL+"/graphs/g/vertices/banana", ""); code != 400 {
		t.Fatalf("non-numeric vertex: %d", code)
	}
	code, body = do(t, "GET", ts.URL+"/graphs/g/communities/0", "")
	if code != 200 || body["size"].(float64) < 1 {
		t.Fatalf("community query: %d %+v", code, body)
	}
	if code, _ := do(t, "GET", ts.URL+"/graphs/g/communities/999", ""); code != 404 {
		t.Fatalf("empty community: %d", code)
	}
	// Deregister; the graph is gone.
	if code, _ := do(t, "DELETE", ts.URL+"/graphs/g", ""); code != 200 {
		t.Fatalf("deregister: %d", code)
	}
	if code, _ := do(t, "GET", ts.URL+"/graphs/g", ""); code != 404 {
		t.Fatalf("stats after deregister: %d", code)
	}
}

// The tentpole contract: answers served over HTTP are bit-identical to
// an offline stream.Detector fed the same batches in the same order at
// the same seed.
func TestServiceMatchesOfflineDetector(t *testing.T) {
	batches := testBatches(t, 4, 41)
	gc := GraphConfig{Algorithm: "hsbp", Seed: 17}

	cfg, err := gc.StreamConfig()
	if err != nil {
		t.Fatal(err)
	}
	ref := stream.NewDetector(cfg)
	for _, b := range batches {
		if err := ref.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}

	_, ts := newTestServer(t, Config{})
	raw, _ := json.Marshal(gc)
	if code, _ := do(t, "POST", ts.URL+"/graphs/web", string(raw)); code != 201 {
		t.Fatalf("register: %d", code)
	}
	for _, b := range batches {
		if code, _ := do(t, "POST", ts.URL+"/graphs/web/edges", edgesBody(b)); code != 200 {
			t.Fatalf("ingest: %d", code)
		}
	}
	assertAssignmentMatches(t, ts.URL+"/graphs/web", ref)
}

// assertAssignmentMatches compares the daemon's full served assignment
// and a few point queries against an offline reference detector.
func assertAssignmentMatches(t *testing.T, graphURL string, ref *stream.Detector) {
	t.Helper()
	want := ref.Snapshot()
	resp, err := http.Get(graphURL + "/assignment")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != want.Vertices {
		t.Fatalf("served %d assignment lines, offline has %d vertices", len(lines), want.Vertices)
	}
	for v, line := range lines {
		var sv, sc int
		if _, err := fmt.Sscanf(line, "%d\t%d", &sv, &sc); err != nil {
			t.Fatalf("line %d: %q", v, line)
		}
		if sv != v || int32(sc) != want.Assignment[v] {
			t.Fatalf("vertex %d: served community %d, offline %d", v, sc, want.Assignment[v])
		}
	}
	for _, v := range []int{0, want.Vertices / 2, want.Vertices - 1} {
		code, body := do(t, "GET", fmt.Sprintf("%s/vertices/%d", graphURL, v), "")
		if code != 200 {
			t.Fatalf("vertex %d: %d", v, code)
		}
		if got := int32(body["community"].(float64)); got != want.Assignment[v] {
			t.Fatalf("vertex %d: served %d, offline %d", v, got, want.Assignment[v])
		}
	}
	code, body := do(t, "GET", graphURL, "")
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if int(body["communities"].(float64)) != want.Blocks || body["mdl"].(float64) != want.MDL {
		t.Fatalf("stats %+v, offline blocks=%d mdl=%v", body, want.Blocks, want.MDL)
	}
}

// Queries must be answered, consistently, while ingest is refining —
// the atomically swapped snapshot contract, exercised under -race by
// ci's race pass.
func TestServiceQueriesConcurrentWithIngest(t *testing.T) {
	batches := testBatches(t, 6, 43)
	s, ts := newTestServer(t, Config{})
	if code, _ := do(t, "POST", ts.URL+"/graphs/g", ""); code != 201 {
		t.Fatalf("register: %d", code)
	}
	if code, _ := do(t, "POST", ts.URL+"/graphs/g/edges", edgesBody(batches[0])); code != 200 {
		t.Fatal("first batch failed")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, body := do(t, "GET", ts.URL+"/graphs/g/vertices/0", "")
				if code != 200 {
					t.Errorf("vertex query during ingest: %d", code)
					return
				}
				if body["community"].(float64) < 0 {
					t.Error("negative community")
					return
				}
				if code, _ := do(t, "GET", ts.URL+"/graphs/g", ""); code != 200 {
					t.Errorf("stats during ingest: %d", code)
					return
				}
			}
		}()
	}
	for _, b := range batches[1:] {
		if err := s.Ingest(context.Background(), "g", b, true); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// SIGTERM-shaped shutdown: drain, checkpoint, restart with Resume, and
// the served partition — and its continuation — stays bit-identical to
// an offline detector that never stopped.
func TestServiceResumeContinuesBitIdentical(t *testing.T) {
	batches := testBatches(t, 4, 47)
	gc := GraphConfig{Seed: 29, FullSearchPeriod: 3, CheckpointEvery: 1}
	dir := t.TempDir()

	cfg, err := gc.StreamConfig()
	if err != nil {
		t.Fatal(err)
	}
	ref := stream.NewDetector(cfg)
	for _, b := range batches {
		if err := ref.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}

	s1, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(gc)
	ts1 := httptest.NewServer(s1.Handler())
	if code, _ := do(t, "POST", ts1.URL+"/graphs/web", string(raw)); code != 201 {
		t.Fatal("register failed")
	}
	for _, b := range batches[:2] {
		if code, _ := do(t, "POST", ts1.URL+"/graphs/web/edges", edgesBody(b)); code != 200 {
			t.Fatal("ingest failed")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	// Writes after drain began are refused.
	if err := s1.Ingest(context.Background(), "web", batches[2], true); err != ErrDraining {
		t.Fatalf("ingest while draining: %v", err)
	}

	s2, err := New(Config{DataDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		_ = s2.Shutdown(ctx)
	}()
	code, body := do(t, "GET", ts2.URL+"/graphs/web", "")
	if code != 200 {
		t.Fatalf("resumed graph missing: %d", code)
	}
	if body["resumes"].(float64) != 1 || body["batches"].(float64) != 2 {
		t.Fatalf("resumed stats: %+v", body)
	}
	// The registration document round-tripped through checkpoint metadata.
	cfgBody, _ := json.Marshal(body["config"])
	var gotGC GraphConfig
	if err := json.Unmarshal(cfgBody, &gotGC); err != nil || gotGC != gc {
		t.Fatalf("config after resume: %+v (err %v)", gotGC, err)
	}
	// Continue the stream on the resumed server; it must track the
	// never-stopped offline run bit-for-bit, across the FullSearchPeriod
	// boundary at batch 3.
	for _, b := range batches[2:] {
		if code, _ := do(t, "POST", ts2.URL+"/graphs/web/edges", edgesBody(b)); code != 200 {
			t.Fatal("ingest after resume failed")
		}
	}
	assertAssignmentMatches(t, ts2.URL+"/graphs/web", ref)
}

// A graph registered but never fed survives a resume cycle.
func TestServiceResumeEmptyGraph(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Register("idle", GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{DataDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(ctx)
	if names := s2.Names(); len(names) != 1 || names[0] != "idle" {
		t.Fatalf("resumed names: %v", names)
	}
	if err := s2.Ingest(context.Background(), "idle", []graph.Edge{{Src: 0, Dst: 1}}, true); err != nil {
		t.Fatal(err)
	}
}

// A corrupt checkpoint must fail startup loudly, not silently drop the
// graph.
func TestServiceResumeRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Register("g", GraphConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Ingest(context.Background(), "g", []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, true); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	path := snapshot.Policy{Dir: dir}.StreamPath("g")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{DataDir: dir, Resume: true}); err == nil {
		t.Fatal("resume accepted a corrupt checkpoint")
	}
}

// Per-graph instruments land in the registry and are served on
// /metrics through the service handler.
func TestServiceMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Obs: obs.Obs{Metrics: reg}})
	if code, _ := do(t, "POST", ts.URL+"/graphs/g", ""); code != 201 {
		t.Fatal("register failed")
	}
	if code, _ := do(t, "POST", ts.URL+"/graphs/g/edges", "0 1\n1 2\n"); code != 200 {
		t.Fatal("ingest failed")
	}
	if code, _ := do(t, "GET", ts.URL+"/graphs/g/vertices/0", ""); code != 200 {
		t.Fatal("query failed")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, series := range []string{
		`sbpd_graphs 1`,
		`sbpd_ingest_batches_total{graph="g"} 1`,
		`sbpd_ingest_edges_total{graph="g"} 2`,
		`sbpd_queries_total{graph="g"} 1`,
		`sbpd_vertices{graph="g"} 3`,
		`sbpd_partition_age_seconds{graph="g"}`,
		`sbpd_normalized_mdl{graph="g"}`,
	} {
		if !strings.Contains(text, series) {
			t.Fatalf("/metrics missing %q:\n%s", series, text)
		}
	}
	// The normalized MDL gauge carries the published model's value.
	g, err := s.lookup("g")
	if err != nil {
		t.Fatal(err)
	}
	want := g.det.Snapshot().Model.NormalizedMDL()
	const prefix = `sbpd_normalized_mdl{graph="g"} `
	var got float64
	for _, ln := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(ln, prefix); ok {
			if got, err = strconv.ParseFloat(v, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got != want || want <= 0 {
		t.Fatalf("sbpd_normalized_mdl = %v, want %v (> 0)", got, want)
	}
}

// TestIngestWorkerPanicContained: a batch that panics the detector
// must not take the process down. The waiter gets a contained error,
// the graph degrades (queries 503 with Retry-After), the worker
// restarts (counted), and the next clean batch restores service.
func TestIngestWorkerPanicContained(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Obs: obs.Obs{Metrics: reg}})
	if err := s.Register("g", GraphConfig{Workers: 1, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	batches := testBatches(t, 3, 6)
	ctx := context.Background()

	// One clean batch so the graph has a partition to query.
	if err := s.Ingest(ctx, "g", batches[0], true); err != nil {
		t.Fatal(err)
	}
	if code, _ := do(t, "GET", ts.URL+"/graphs/g/vertices/0", ""); code != http.StatusOK {
		t.Fatalf("pre-panic query: %d", code)
	}

	// Poison the next batch through the test seam. The waiting Ingest
	// above ordered this write before the worker's next read.
	g, err := s.lookup("g")
	if err != nil {
		t.Fatal(err)
	}
	det := g.ingest
	poisoned := true
	g.ingest = func(edges []graph.Edge) error {
		if poisoned {
			poisoned = false
			panic("injected detector panic")
		}
		return det(edges)
	}

	err = s.Ingest(ctx, "g", batches[1], true)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("poisoned batch error = %v, want a contained panic", err)
	}

	// Degraded: queries 503 and carry Retry-After.
	resp, err := http.Get(ts.URL + "/graphs/g/vertices/0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded query: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded 503 is missing Retry-After")
	}
	if n := reg.Counter("sbpd_worker_restarts_total", "", obs.L("graph", "g")).Value(); n != 1 {
		t.Errorf("sbpd_worker_restarts_total = %d, want 1", n)
	}

	// The restarted worker applies the next clean batch, which clears
	// the degraded state and restores queries.
	if err := s.Ingest(ctx, "g", batches[2], true); err != nil {
		t.Fatalf("post-restart ingest: %v", err)
	}
	if code, _ := do(t, "GET", ts.URL+"/graphs/g/vertices/0", ""); code != http.StatusOK {
		t.Fatalf("post-recovery query: %d, want 200", code)
	}
}
