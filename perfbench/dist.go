package main

import (
	"errors"
	"fmt"
	"math"
	stdnet "net"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/benchmark"
	"repro/internal/blockmodel"
	"repro/internal/dist"
	distnet "repro/internal/dist/net"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rng"
)

// mesh is a connected loopback TCP cluster whose ranks live in this
// process.
type mesh struct {
	trs  []*distnet.Transport
	dial float64 // seconds from the first Dial until every rank connected
}

func dialMesh(ranks int, seed uint64, tr *tracer) (*mesh, error) {
	lns := make([]stdnet.Listener, 0, ranks)
	peers := make([]string, 0, ranks)
	for i := 0; i < ranks; i++ {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns = append(lns, ln)
		peers = append(peers, ln.Addr().String())
	}
	m := &mesh{trs: make([]*distnet.Transport, ranks)}
	errs := make([]error, ranks)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < ranks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := tr.open(-1, "distnet", "Dial")
			m.trs[i], errs[i] = distnet.Dial(distnet.Config{Rank: i, Peers: peers, Listener: lns[i], Seed: seed})
			tr.close(id)
		}(i)
	}
	wg.Wait()
	m.dial = since(start)
	if err := errors.Join(errs...); err != nil {
		m.close()
		for _, l := range lns {
			l.Close() // a rank that failed may not have closed its listener
		}
		return nil, fmt.Errorf("dial mesh: %w", err)
	}
	return m, nil
}

func (m *mesh) close() {
	for _, t := range m.trs {
		if t != nil {
			t.Close()
		}
	}
}

func (m *mesh) retries() (n int64) {
	for _, t := range m.trs {
		n += t.DialRetries()
	}
	return n
}

// comms returns a fresh Comm per rank, so per-phase counters start at 0.
func (m *mesh) comms() []*dist.Comm {
	out := make([]*dist.Comm, len(m.trs))
	for i, t := range m.trs {
		out[i] = dist.NewComm(t)
	}
	return out
}

type rankOut struct {
	st         dist.RankStats
	membership []int32
	wall       float64
	err        error
}

type phaseOut struct {
	ranks []rankOut
	lap   lap // from the first RunRank call until every rank returned
	sig   distSig
	bm    *blockmodel.Blockmodel // rebuilt from rank 0's final membership
}

// distSig holds a phase's exact-repeat counts and agreed final MDL.
type distSig struct {
	Sweeps            int
	Proposals, Accept int64
	MDL               float64
}

// runPhase runs one distributed D-H-SBP phase, one goroutine per rank.
func runPhase(comms []*dist.Comm, g *graph.Graph, start []int32, c int, cfg dist.Config, tr *tracer) phaseOut {
	out := phaseOut{ranks: make([]rankOut, len(comms))}
	sw := startWatch()
	var wg sync.WaitGroup
	for i, comm := range comms {
		wg.Add(1)
		go func(ro *rankOut, comm *dist.Comm) {
			defer wg.Done()
			ro.membership = append([]int32(nil), start...)
			id := tr.open(-1, "dist", "RunRank")
			t0 := time.Now()
			ro.st, ro.err = dist.RunRank(comm, g, ro.membership, c, dist.ModeHybrid, cfg)
			ro.wall = since(t0)
			tr.close(id)
			if tr != nil {
				end := time.Now()
				tr.add(id, "distnet", "collectives", end.Add(-ro.st.CommTime), end)
			}
		}(&out.ranks[i], comm)
	}
	wg.Wait()
	out.lap = sw.lap()
	return out
}

// checkPhase requires every rank to succeed and to end with the same
// membership, whose recomputed MDL must equal the agreed final MDL, and
// for a repeat (ref != nil) the first run's exact counts.
func checkPhase(g *graph.Graph, out *phaseOut, c int, seed uint64, ref *distSig, corrupt bool) error {
	ranks := len(out.ranks)
	for i, ro := range out.ranks {
		if ro.err != nil {
			return fmt.Errorf("dist seed %#x %d ranks: rank %d: %w", seed, ranks, i, ro.err)
		}
	}
	st := out.ranks[0].st
	m0 := out.ranks[0].membership
	bm, err := blockmodel.FromAssignment(g, m0, c, 1)
	if err != nil {
		return fmt.Errorf("dist seed %#x %d ranks: %w", seed, ranks, err)
	}
	out.bm = bm
	out.sig = distSig{Sweeps: st.Sweeps, Proposals: st.Proposals, Accept: st.Accepts, MDL: st.FinalS}
	for i, ro := range out.ranks[1:] {
		if !slices.Equal(m0, ro.membership) {
			return fmt.Errorf("dist seed %#x %d ranks: rank %d ended with a different membership than rank 0", seed, ranks, i+1)
		}
	}
	got := bm.MDL()
	if corrupt {
		a := append([]int32(nil), m0...)
		a[0] = (a[0] + 1) % int32(c)
		if bad, err := blockmodel.FromAssignment(g, a, c, 1); err == nil {
			got = bad.MDL()
		}
	}
	if got != st.FinalS {
		return fmt.Errorf("dist seed %#x %d ranks: MDL recomputed from the membership is %v, the ranks agreed on %v",
			seed, ranks, got, st.FinalS)
	}
	if ref != nil && out.sig != *ref {
		return fmt.Errorf("dist seed %#x %d ranks is not an exact repeat: %+v, first run %+v", seed, ranks, out.sig, *ref)
	}
	return nil
}

// runDist is dist-tcp: a fixed-length D-H-SBP phase from a random start
// at the planted block count, on W ranks over loopback TCP and on one
// rank, per seeded problem.
func runDist(e *env, r *report) error {
	type input struct {
		sd *benchmark.ShapeData
		m  *mesh
	}
	var dials []float64
	st := &setupTimer[input]{build: func() (input, error) {
		sd, err := buildInput(e.sp)
		if err != nil {
			return input{}, err
		}
		m, err := dialMesh(e.cfg.Workers, e.seed, nil)
		if err != nil {
			return input{}, err
		}
		dials = append(dials, m.dial)
		return input{sd, m}, nil
	}, discard: func(in input) { in.m.close() }}
	in, err := st.run()
	if err != nil {
		return err
	}
	defer in.m.close()
	g, c := in.sd.G, in.sd.TruthC

	config := func(ranks int, s uint64) dist.Config {
		cfg := dist.DefaultConfig()
		cfg.Ranks = ranks
		cfg.Threshold = 0 // run exactly MaxSweeps sweeps on every rank count
		cfg.MaxSweeps = e.sp.Sweeps
		cfg.Seed = s
		return cfg
	}
	// phase runs problem s on ranks ranks from a dsbp-style start, which
	// every rank derives from the shared seed.
	phase := func(s uint64, ranks int, tr *tracer) phaseOut {
		init := rng.New(s ^ 0xD5B9_1217)
		start := make([]int32, g.NumVertices())
		for v := range start {
			start[v] = int32(init.Intn(c))
		}
		comms := []*dist.Comm{dist.NewCluster(1).Comm(0)}
		if ranks > 1 {
			comms = in.m.comms()
		}
		return runPhase(comms, g, start, c, config(ranks, s), tr)
	}

	// runs[i][k] is problem k on rankCounts[i] ranks.
	rankCounts := []int{e.cfg.Workers, 1}
	n := problemCount(e)
	var tm timings
	var runs [2][]phaseOut
	var seeds []uint64
	err = problems(n, e.seed, st.sample, func(k int, s uint64) error {
		seeds = append(seeds, s)
		for i, ranks := range rankCounts {
			var out phaseOut
			tm.measure(i, func() lap {
				out = phase(s, ranks, nil)
				return out.lap
			})
			r.op(checkPhase(g, &out, c, s, nil, e.inject && k == 0 && i == 0))
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
			return fmt.Errorf("seed %#x: the %d-rank phase failed", seeds[k], e.cfg.Workers)
		}
		mdlNorm = append(mdlNorm, out.bm.NormalizedMDL())
		v, err := metrics.NMI(out.bm.Assignment, in.sd.Truth)
		if err != nil {
			return fmt.Errorf("nmi: %w", err)
		}
		nmi = append(nmi, v)
	}
	r.set("mdl_norm", mean(mdlNorm))
	r.set("nmi", mean(nmi))
	fmt.Fprintf(e.log, "%s: %d problems; problem 0: %d ranks %.3fs, 1 rank %.3fs, exact counts %+v\n",
		e.name, n, e.cfg.Workers, runs[0][0].lap.wall, runs[1][0].lap.wall, runs[0][0].sig)
	if !e.trace {
		return nil
	}

	// Traced pass: the multi-rank phases again, spans around each rank.
	tr := &tracer{}
	k := float64(n)
	var distS, untraced, sweeps, sent, comm, compute, residual, skew float64
	for i, s := range seeds {
		out := phase(s, e.cfg.Workers, tr)
		r.op(checkPhase(g, &out, c, s, &runs[0][i].sig, false))
		distS += out.lap.wall / k
		untraced += runs[0][i].lap.wall
		sweeps += float64(out.ranks[0].st.Sweeps)
		// The rank that waited longest in collectives splits the phase
		// into its wait and the rest, its compute. RankStats reports no
		// compute time, so this split is an identity, not a check: the
		// residual is only the delay from launching the rank goroutines
		// and joining them again.
		star := out.ranks[0]
		minC, maxC := math.Inf(1), 0.0
		for _, ro := range out.ranks {
			sent += float64(ro.st.SentBytes)
			if ro.st.CommTime > star.st.CommTime {
				star = ro
			}
			cpu := ro.wall - ro.st.CommTime.Seconds()
			minC, maxC = math.Min(minC, cpu), math.Max(maxC, cpu)
		}
		comm += star.st.CommTime.Seconds() / k
		compute += (star.wall - star.st.CommTime.Seconds()) / k
		residual += (out.lap.wall - star.wall) / k
		skew += ratio(maxC, minC) / k
	}
	r.set("dist.sweeps", sweeps)
	r.set("dist.sweep_ms", ratio(distS*k, sweeps)*1e3)
	r.set("dist.comm_s", comm)
	r.set("dist.compute_s", compute)
	r.set("dist.residual_s", residual)
	r.set("dist.comm_share", ratio(comm, distS))
	r.set("dist.compute_skew", skew)
	r.set("dist.bytes_per_sweep", ratio(sent, sweeps))
	r.set("dist.dial_s", median(dials))
	r.set("dist.dial_retries", float64(in.m.retries()))
	r.set("dist.speedup", ratio(r.values["net_wall_w1_s"], r.values["net_wall_s"]))
	r.set("obs.trace_overhead", ratio(distS*k, untraced))
	return tr.write(filepath.Join(e.dir, fmt.Sprintf("trace-%s-%d.jsonl", e.name, e.seed)))
}
