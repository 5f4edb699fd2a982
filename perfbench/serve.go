package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	stdnet "net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/benchmark"
	"repro/internal/blockmodel"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/stream"
)

// server is an in-process serve.Server behind serve.HTTPServer on a
// loopback port, with its checkpoint directory.
type server struct {
	srv     *serve.Server
	hs      *http.Server
	base    string
	served  chan error // Serve's return value
	dataDir string
}

func startServer(dir string) (*server, error) {
	dataDir, err := os.MkdirTemp(dir, "sbpd-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{DataDir: dataDir})
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, err
	}
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: srv, hs: serve.HTTPServer(srv.Handler()), base: "http://" + ln.Addr().String(),
		served: make(chan error, 1), dataDir: dataDir}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the HTTP side, then drains the service, which writes a
// final checkpoint of every graph; it returns the drain time in seconds.
func (s *server) stop() (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	herr := s.hs.Shutdown(ctx)
	<-s.served
	t := time.Now()
	serr := s.srv.Shutdown(ctx)
	d := since(t)
	return d, errors.Join(herr, serr, os.RemoveAll(s.dataDir))
}

// client sends the benchmark's HTTP requests, one span per request.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

// do sends one request and returns the status and body; any status but
// want is an error.
func (c *client) do(method, path string, body []byte, want int) (int, []byte, error) {
	id := c.tr.open(-1, "serve", method+" "+path)
	defer c.tr.close(id)
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return resp.StatusCode, out, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return resp.StatusCode, out, nil
}

// initialShare is the share of a graph's edges in the first batch: a bulk
// load whose full search finds the structure, so the update batches take
// the warm-refresh path rather than the collapse-and-escalate one.
const initialShare = 0.4

// streamInput is one problem of serve-stream: the graph's edges in a
// seeded order, cut into an initial load and equal update batches.
type streamInput struct {
	edges   []graph.Edge // stream order
	batches [][]graph.Edge
	bodies  [][]byte // the batches as "src dst" lines
}

func newStreamInput(g *graph.Graph, sp spec, seed uint64) *streamInput {
	edges := g.Edges()
	rn := rng.New(seed ^ 0x5EED_0F_ED6E)
	for i := len(edges) - 1; i > 0; i-- {
		j := rn.Intn(i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
	first := int(initialShare * float64(len(edges)))
	in := &streamInput{edges: edges, batches: [][]graph.Edge{edges[:first]}}
	rest := len(edges) - first
	for b := 0; b < sp.Batches; b++ {
		in.batches = append(in.batches, edges[first+b*rest/sp.Batches:first+(b+1)*rest/sp.Batches])
	}
	for _, batch := range in.batches {
		var buf bytes.Buffer
		for _, e := range batch {
			buf.WriteString(strconv.Itoa(int(e.Src)))
			buf.WriteByte(' ')
			buf.WriteString(strconv.Itoa(int(e.Dst)))
			buf.WriteByte('\n')
		}
		in.bodies = append(in.bodies, buf.Bytes())
	}
	return in
}

// passOut is one streamed graph: what the client timed and what the
// server ended with.
type passOut struct {
	lap        lap       // first POST until the last batch applied
	ingest     []float64 // per-batch POST→applied latency, seconds
	full       []bool    // the batch ran a full search
	stats      serve.GraphStats
	assignment []int32
	bm         *blockmodel.Blockmodel // rebuilt from the served assignment
	queries    queryOut
}

// streamSig holds what a repeat of a pass must reproduce exactly.
type streamSig struct {
	FullSearches, Escalations, Communities int
	MDL                                    float64
}

func (p *passOut) sig() streamSig {
	return streamSig{FullSearches: p.stats.FullSearches, Escalations: p.stats.Escalations,
		Communities: p.stats.Communities, MDL: p.stats.MDL}
}

func registerGraph(c *client, name string, gc serve.GraphConfig) error {
	body, err := json.Marshal(gc)
	if err != nil {
		return err
	}
	_, _, err = c.do("POST", "/graphs/"+name, body, http.StatusCreated)
	return err
}

// streamPass POSTs every batch of in to the registered graph name in a
// closed loop, each waiting until applied, while an open-loop client
// queries vertices at rate once the first batch is applied. Every
// request is an operation of r.
func streamPass(c *client, name string, in *streamInput, rate float64, seed uint64, r *report) (passOut, error) {
	var out passOut
	stop := make(chan struct{})
	ready := make(chan int, 1) // vertex count after the first batch
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		select {
		case n := <-ready:
			if n > 0 {
				out.queries = queryLoad(c, name, n, rate, seed, stop, 0)
			}
		case <-stop:
		}
	}()

	sw := startWatch()
	prevFull := 0
	for b, body := range in.bodies {
		t := time.Now()
		code, resp, err := c.do("POST", "/graphs/"+name+"/edges", body, http.StatusOK)
		out.ingest = append(out.ingest, since(t))
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			r.set("serve.rejected", r.values["serve.rejected"]+1)
		}
		var st serve.GraphStats
		if err == nil {
			err = json.Unmarshal(resp, &st)
		}
		r.op(err)
		out.full = append(out.full, st.FullSearches > prevFull)
		prevFull = st.FullSearches
		if b == 0 {
			ready <- st.Vertices
		}
	}
	out.lap = sw.lap()
	close(stop)
	qwg.Wait()
	out.queries.count(r)

	_, body, err := c.do("GET", "/graphs/"+name, nil, http.StatusOK)
	if err == nil {
		err = json.Unmarshal(body, &out.stats)
	}
	r.op(err)
	if err != nil {
		return out, err
	}
	_, body, err = c.do("GET", "/graphs/"+name+"/assignment", nil, http.StatusOK)
	if err == nil {
		out.assignment, err = parseAssignment(body, out.stats.Vertices)
	}
	r.op(err)
	return out, err
}

func parseAssignment(body []byte, n int) ([]int32, error) {
	a := make([]int32, n)
	seen := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var v, c int
		if _, err := fmt.Sscan(sc.Text(), &v, &c); err != nil {
			return nil, fmt.Errorf("assignment line %q: %w", sc.Text(), err)
		}
		if v < 0 || v >= n {
			return nil, fmt.Errorf("assignment vertex %d outside [0,%d)", v, n)
		}
		a[v] = int32(c)
		seen++
	}
	if seen != n {
		return nil, fmt.Errorf("assignment lists %d of %d vertices", seen, n)
	}
	return a, sc.Err()
}

// checkPass recomputes the served partition's MDL from the served
// assignment over the streamed edges and, for a repeat (ref != nil),
// requires the first pass's exact counts, MDL and partition.
func checkPass(in *streamInput, out *passOut, ref *passOut, corrupt bool) error {
	n := len(out.assignment)
	g, err := graph.New(n, in.edges)
	if err != nil {
		return fmt.Errorf("stream graph: %w", err)
	}
	c := int(slices.Max(out.assignment)) + 1
	bm, err := blockmodel.FromAssignment(g, out.assignment, c, 1)
	if err != nil {
		return fmt.Errorf("served assignment: %w", err)
	}
	out.bm = bm
	got := bm.MDL()
	if corrupt {
		a := append([]int32(nil), out.assignment...)
		a[0] = (a[0] + 1) % int32(c)
		if bad, err := blockmodel.FromAssignment(g, a, c, 1); err == nil {
			got = bad.MDL()
		}
	}
	if got != out.stats.MDL {
		return fmt.Errorf("served graph %s: MDL recomputed from the served assignment is %v, the server reported %v",
			out.stats.Name, got, out.stats.MDL)
	}
	if ref != nil && (out.sig() != ref.sig() || !slices.Equal(out.assignment, ref.assignment)) {
		return fmt.Errorf("served graph %s is not an exact repeat: %+v, first pass %+v", out.stats.Name, out.sig(), ref.sig())
	}
	return nil
}

// queryOut is what an open-loop query client saw. Latency is timed from
// each query's due time, so a stall also delays the queries behind it.
type queryOut struct {
	latMS  []float64 // successful queries
	lateMS []float64 // how late each query was sent
	errs   []error
}

func (q *queryOut) count(r *report) {
	for range q.latMS {
		r.op(nil)
	}
	for _, err := range q.errs {
		r.op(err)
	}
}

// queryLoad GETs random vertices of graph name, due every 1/rate
// seconds, until stop closes or limit queries were sent (limit 0: no
// limit). It returns once every query has completed.
func queryLoad(c *client, name string, vertices int, rate float64, seed uint64, stop <-chan struct{}, limit int) queryOut {
	var out queryOut
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, 32) // bounds the queries in flight
	rn := rng.New(seed ^ 0x0_9E_41_E5)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i := 0; limit == 0 || i < limit; i++ {
		due := start.Add(time.Duration(i) * interval)
		timer.Reset(time.Until(due))
		select {
		case <-stop:
			wg.Wait()
			return out
		case <-timer.C:
		}
		sem <- struct{}{}
		late := time.Since(due)
		path := fmt.Sprintf("/graphs/%s/vertices/%d", name, rn.Intn(vertices))
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.do("GET", path, nil, http.StatusOK)
			lat := time.Since(due)
			<-sem
			mu.Lock()
			defer mu.Unlock()
			out.lateMS = append(out.lateMS, float64(late.Nanoseconds())/1e6)
			if err != nil {
				out.errs = append(out.errs, err)
				return
			}
			out.latMS = append(out.latMS, float64(lat.Nanoseconds())/1e6)
		}()
	}
	wg.Wait()
	return out
}

// runServe is serve-stream: each problem's edges stream into a served
// graph at W refinement workers and again at one worker, with queries
// running alongside.
func runServe(e *env, r *report) error {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	defer hc.CloseIdleConnections()
	gcFor := func(s uint64, workers int) serve.GraphConfig {
		return serve.GraphConfig{Algorithm: e.sp.Algorithm, Seed: s, Workers: workers}
	}
	nameFor := func(k, workers int) string { return fmt.Sprintf("p%d-w%d", k, workers) }
	seed0 := problemSeed(e.seed, 0)

	type input struct {
		sd     *benchmark.ShapeData
		stream *streamInput // problem 0's
		srv    *server
	}
	// Set-up: the input, a started server and the first graph registered.
	st := &setupTimer[input]{build: func() (input, error) {
		sd, err := buildInput(e.sp)
		if err != nil {
			return input{}, err
		}
		stream := newStreamInput(sd.G, e.sp, seed0)
		srv, err := startServer(e.dir)
		if err != nil {
			return input{}, err
		}
		c := &client{hc: hc, base: srv.base}
		if err := registerGraph(c, nameFor(0, e.cfg.Workers), gcFor(seed0, e.cfg.Workers)); err != nil {
			srv.stop()
			return input{}, err
		}
		return input{sd, stream, srv}, nil
	}, discard: func(in input) { in.srv.stop() }}
	in, err := st.run()
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			in.srv.stop()
		}
	}()
	r.set("serve.rejected", 0)
	sd := in.sd
	c := &client{hc: hc, base: in.srv.base}

	// runs[i][k] is problem k served at widths[i] refinement workers.
	widths := []int{e.cfg.Workers, 1}
	n := problemCount(e)
	var tm timings
	var runs [2][]passOut
	err = problems(n, e.seed, st.sample, func(k int, s uint64) error {
		stream := in.stream
		if k > 0 {
			stream = newStreamInput(sd.G, e.sp, s)
		}
		for i, w := range widths {
			name := nameFor(k, w)
			if k+i > 0 {
				if err := registerGraph(c, name, gcFor(s, w)); err != nil {
					return err
				}
			}
			var out passOut
			var err error
			tm.measure(i, func() lap {
				out, err = streamPass(c, name, stream, e.sp.QueryRate, s, r)
				_, _, derr := c.do("DELETE", "/graphs/"+name, nil, http.StatusOK)
				r.op(derr)
				return out.lap
			})
			if err != nil {
				return err
			}
			r.op(checkPass(stream, &out, nil, e.inject && k == 0 && i == 0))
			runs[i] = append(runs[i], out)
		}
		return nil
	})
	if err != nil {
		return err
	}
	tm.report(r, st.times, e.log)
	var mdlNorm, nmi []float64
	for k, out := range runs[0] {
		if out.bm == nil {
			return fmt.Errorf("problem %d: the served partition failed its check", k)
		}
		mdlNorm = append(mdlNorm, out.bm.NormalizedMDL())
		v, err := metrics.NMI(out.assignment, sd.Truth[:len(out.assignment)])
		if err != nil {
			return fmt.Errorf("nmi: %w", err)
		}
		nmi = append(nmi, v)
	}
	r.set("mdl_norm", mean(mdlNorm))
	r.set("nmi", mean(nmi))
	fmt.Fprintf(e.log, "%s: %d problems; problem 0: W=%d %.3fs, W=1 %.3fs, exact counts %+v\n",
		e.name, n, e.cfg.Workers, runs[0][0].lap.wall, runs[1][0].lap.wall, runs[0][0].sig())
	if !e.trace {
		return nil
	}

	// Traced pass: problem 0 streamed again at W workers with a span per
	// request, then the offline replay, idle queries, probes and shutdown.
	tr := &tracer{}
	tc := &client{hc: hc, base: in.srv.base, tr: tr}
	name := "traced"
	if err := registerGraph(tc, name, gcFor(seed0, e.cfg.Workers)); err != nil {
		return err
	}
	traced, err := streamPass(tc, name, in.stream, e.sp.QueryRate, seed0, r)
	if err != nil {
		return err
	}
	err = checkPass(in.stream, &traced, &runs[0][0], false)
	r.op(err)
	if traced.bm == nil {
		return err // nothing to probe: the served assignment was unusable
	}
	var warm []float64
	fullS := 0.0
	for b, lat := range traced.ingest {
		if traced.full[b] {
			fullS += lat
		} else {
			warm = append(warm, lat)
		}
	}
	r.set("stream.full_searches", float64(traced.stats.FullSearches))
	r.set("stream.escalations", float64(traced.stats.Escalations))
	r.set("stream.full_s", fullS)
	r.set("stream.warm_p50_s", median(warm))
	r.set("serve.ingest_p50_s", median(traced.ingest))
	// Query latency under ingest pools every pass of this run, at both
	// refinement widths, so that the 99th percentile rests on enough
	// samples.
	lat, late := traced.queries.latMS, traced.queries.lateMS
	for _, out := range append(runs[0], runs[1]...) {
		lat = append(lat, out.queries.latMS...)
		late = append(late, out.queries.lateMS...)
	}
	r.set("serve.query_p50_ms", median(lat))
	r.set("serve.query_p99_ms", quantile(lat, 0.99))
	r.set("serve.queries", float64(len(lat)))
	if len(lat) < 1000 {
		r.note("serve.query_p99_ms rests on %d queries, fewer than ten beyond the 99th percentile", len(lat))
	}
	r.set("serve.gen_late_ms", quantile(late, 0.99))
	r.set("obs.trace_overhead", ratio(traced.lap.wall, runs[0][0].lap.wall))

	idle := queryLoad(tc, name, traced.stats.Vertices, e.sp.QueryRate, seed0+1, nil, e.sp.IdleQueries)
	idle.count(r)
	r.set("serve.query_idle_p50_ms", median(idle.latMS))

	// Offline replay: the same batches through stream.Detector, no HTTP.
	cfg, err := gcFor(seed0, e.cfg.Workers).StreamConfig()
	if err != nil {
		return err
	}
	det := stream.NewDetector(cfg)
	var replay []float64
	var replayErr error
	for _, batch := range in.stream.batches {
		id := tr.open(-1, "stream", "Detector.Ingest")
		t := time.Now()
		if err := det.Ingest(batch); err != nil && replayErr == nil {
			replayErr = fmt.Errorf("offline replay: %w", err)
		}
		replay = append(replay, since(t))
		tr.close(id)
	}
	if replayErr == nil && !slices.Equal(det.Assignment(), traced.assignment) {
		replayErr = errors.New("the served partition differs from the offline stream.Detector replay")
	}
	r.op(replayErr)
	r.set("stream.replay_p50_s", median(replay))

	var csr, parse []float64
	all := in.stream.edges
	for i := 0; i < 5; i++ {
		id := tr.open(-1, "graph", "graph.New")
		t := time.Now()
		_, err := graph.New(len(traced.assignment), all)
		csr = append(csr, since(t)*1e3)
		tr.close(id)
		if err != nil {
			return err
		}
		id = tr.open(-1, "serve", "ParseEdges")
		t = time.Now()
		_, err = serve.ParseEdges(bytes.NewReader(in.stream.bodies[len(in.stream.bodies)-1]))
		parse = append(parse, since(t)*1e3)
		tr.close(id)
		if err != nil {
			return err
		}
	}
	r.set("graph.csr_build_ms", median(csr))
	r.set("serve.parse_ms", median(parse))
	probeLayers(e, r, tr, sd.G, traced.bm)

	id := tr.open(-1, "snapshot", "Server.Shutdown")
	drain, err := in.srv.stop()
	tr.close(id)
	stopped = true
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	r.set("snapshot.shutdown_ms", drain*1e3)
	return tr.write(filepath.Join(e.dir, fmt.Sprintf("trace-%s-%d.jsonl", e.name, e.seed)))
}
