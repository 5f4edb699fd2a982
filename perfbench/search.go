package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/benchmark"
	"repro/internal/blockmodel"
	"repro/internal/graph"
	"repro/internal/mcmc"
	"repro/internal/metrics"
	"repro/internal/sbp"
)

// searchOut is one sbp.Run and what the checks compare across repeats.
type searchOut struct {
	res *sbp.Result
	lap lap // the sbp.Run call
	sig searchSig
}

// searchSig holds the exact-repeat counts and the MDL of a search: equal
// for equal seed and width, or the search is nondeterministic.
type searchSig struct {
	Iterations, Sweeps, Blocks int
	Proposals, MergeProposals  int64
	MDL                        float64
}

// runSearch is search-planted: sbp.Run on the workload graph at W
// workers and at one worker, per seeded problem.
func runSearch(e *env, r *report) error {
	alg, err := parseAlgorithm(e.sp.Algorithm)
	if err != nil {
		return err
	}
	st := &setupTimer[*benchmark.ShapeData]{build: func() (*benchmark.ShapeData, error) { return buildInput(e.sp) }}
	sd, err := st.run()
	if err != nil {
		return err
	}
	widths := []int{e.cfg.Workers, 1}

	// runs[i][k] is problem k at widths[i].
	n := problemCount(e)
	var tm timings
	var runs [2][]searchOut
	var seeds []uint64
	err = problems(n, e.seed, st.sample, func(k int, s uint64) error {
		seeds = append(seeds, s)
		for i, w := range widths {
			var out searchOut
			tm.measure(i, func() lap {
				out = search(sd.G, alg, s, w, nil)
				return out.lap
			})
			r.op(checkSearch(sd.G, out, s, w, nil, e.inject && k == 0 && i == 0))
			runs[i] = append(runs[i], out)
		}
		return nil
	})
	if err != nil {
		return err
	}
	tm.report(r, st.times, e.log)
	var mdlNorm, nmi []float64
	for _, out := range runs[0] {
		mdlNorm = append(mdlNorm, out.res.NormalizedMDL)
		v, err := metrics.NMI(out.res.Best.Assignment, sd.Truth)
		if err != nil {
			return fmt.Errorf("nmi: %w", err)
		}
		nmi = append(nmi, v)
	}
	r.set("mdl_norm", mean(mdlNorm))
	r.set("nmi", mean(nmi))
	fmt.Fprintf(e.log, "%s: %d problems; problem 0: W=%d %.3fs, W=1 %.3fs, exact counts %+v\n",
		e.name, n, e.cfg.Workers, runs[0][0].lap.wall, runs[1][0].lap.wall, runs[0][0].sig)
	if !e.trace {
		return nil
	}

	// Traced pass: the W-worker searches again, spans around each call.
	tr := &tracer{}
	var traced []searchOut
	for k, s := range seeds {
		out := search(sd.G, alg, s, e.cfg.Workers, tr)
		r.op(checkSearch(sd.G, out, s, e.cfg.Workers, &runs[0][k], false))
		traced = append(traced, out)
	}
	searchLayers(e, r, tr, traced, runs[0], runs[1])
	probeLayers(e, r, tr, sd.G, traced[0].res.Best)
	return tr.write(filepath.Join(e.dir, fmt.Sprintf("trace-%s-%d.jsonl", e.name, e.seed)))
}

// search runs sbp.Run once. With a tracer it records the run span and
// rebuilds one span per outer iteration, with merge and MCMC children,
// from the Progress callbacks.
func search(g *graph.Graph, alg mcmc.Algorithm, seed uint64, workers int, tr *tracer) searchOut {
	opts := sbp.DefaultOptions(alg)
	opts.Seed = seed
	opts.MCMC.Workers = workers
	opts.Merge.Workers = workers
	root := tr.open(-1, "sbp", "sbp.Run")
	if tr != nil {
		last := time.Now()
		opts.Progress = func(it sbp.IterationStats) {
			now := time.Now()
			iter := tr.add(root, "sbp", "iteration", last, now)
			mcmcStart := now.Add(-it.MCMCTime)
			tr.add(iter, "merge", "merge.Phase", mcmcStart.Add(-it.MergeTime), mcmcStart)
			tr.add(iter, "mcmc", "mcmc.Run", mcmcStart, now)
			last = now
		}
	}
	sw := startWatch()
	res := sbp.Run(g, opts)
	l := sw.lap()
	tr.close(root)

	sig := searchSig{Iterations: len(res.Iterations), Sweeps: res.TotalMCMCSweeps,
		Blocks: res.NumCommunities, MDL: res.MDL}
	for _, it := range res.Iterations {
		sig.Proposals += it.MCMC.Proposals
		sig.MergeProposals += it.Merge.Proposals
	}
	return searchOut{res: res, lap: l, sig: sig}
}

// checkSearch recomputes the MDL from the returned membership and, for a
// repeat (ref != nil), requires the first run's exact counts and MDL.
// corrupt moves one vertex first: the self-test's injected wrong result.
func checkSearch(g *graph.Graph, out searchOut, seed uint64, workers int, ref *searchOut, corrupt bool) error {
	best := out.res.Best
	a := best.Assignment
	if corrupt {
		a = append([]int32(nil), a...)
		a[0] = (a[0] + 1) % int32(best.C)
	}
	bm, err := blockmodel.FromAssignment(g, a, best.C, 1)
	if err != nil {
		return fmt.Errorf("search seed %#x W=%d: %w", seed, workers, err)
	}
	if got := bm.MDL(); got != out.res.MDL {
		return fmt.Errorf("search seed %#x W=%d: MDL recomputed from the membership is %v, the search reported %v",
			seed, workers, got, out.res.MDL)
	}
	if ref != nil && out.sig != ref.sig {
		return fmt.Errorf("search seed %#x W=%d is not an exact repeat: %+v, first run %+v", seed, workers, out.sig, ref.sig)
	}
	return nil
}

// searchLayers derives the sbp, merge, mcmc and parallel metrics from the
// traced W-worker searches and the same problems' untraced runs at W
// workers (atW) and one worker (at1).
func searchLayers(e *env, r *report, tr *tracer, traced, atW, at1 []searchOut) {
	k := float64(len(traced))
	self := tr.selfTime()
	var searchS, untraced, iters, mergeProps, sweeps, props, accepts float64
	var mcmcNS, serial, asyncBusy, asyncWall, asyncIdle, rebuild, imbalance float64
	for i, out := range traced {
		searchS += out.lap.wall / k
		untraced += atW[i].lap.wall
		imbalance += out.res.MeanImbalance / k
		mcmcNS += float64(out.res.MCMCTime.Nanoseconds())
		iters += float64(len(out.res.Iterations))
		for _, it := range out.res.Iterations {
			mergeProps += float64(it.Merge.Proposals)
			sweeps += float64(it.MCMC.Sweeps)
			props += float64(it.MCMC.Proposals)
			accepts += float64(it.MCMC.Accepts)
			for _, rec := range it.MCMC.PerSweep {
				serial += rec.SerialNS
				rebuild += rec.RebuildNS
				var max, sum float64
				for _, w := range rec.WorkerNS {
					sum += w
					max = math.Max(max, w)
				}
				asyncBusy += sum
				asyncWall += max
				asyncIdle += float64(len(rec.WorkerNS))*max - sum
			}
		}
	}
	var w1NS, w1Sweeps, model float64
	for i := range traced {
		res := at1[i].res
		w1NS += float64(res.MCMCTime.Nanoseconds())
		w1Sweeps += float64(res.TotalMCMCSweeps)
		cost := res.MCMCCost
		cost.Merge(res.MergeCost)
		model += cost.Speedup(e.cfg.Workers) / k
	}

	perSearch := func(ns float64) float64 { return ns / 1e9 / k }
	mcmcBusy := self["mcmc"] / k
	residual := self["sbp"] / k
	r.set("sbp.iterations", iters)
	r.set("sbp.residual_s", residual)
	r.set("sbp.residual_share", ratio(residual, searchS))
	r.set("merge.busy_s", self["merge"]/k)
	r.set("merge.proposals", mergeProps)
	r.set("mcmc.busy_s", mcmcBusy)
	r.set("mcmc.sweeps", sweeps)
	r.set("mcmc.proposals", props)
	r.set("mcmc.accept_rate", ratio(accepts, props))
	sweepMS := ratio(mcmcNS, sweeps) / 1e6
	r.set("mcmc.sweep_ms", sweepMS)
	r.set("mcmc.async_busy_s", perSearch(asyncBusy))
	r.set("mcmc.async_wall_s", perSearch(asyncWall))
	r.set("mcmc.async_idle_s", perSearch(asyncIdle))
	r.set("mcmc.imbalance", imbalance)
	r.set("mcmc.rebuild_s", perSearch(rebuild))
	mcmcResidual := mcmcBusy - perSearch(serial+asyncWall+rebuild)
	r.set("mcmc.residual_s", mcmcResidual)
	r.set("mcmc.residual_share", ratio(math.Abs(mcmcResidual), mcmcBusy))
	r.set("mcmc.sweep_speedup", ratio(ratio(w1NS, w1Sweeps)/1e6, sweepMS))
	speedup := ratio(r.values["net_wall_w1_s"], r.values["net_wall_s"])
	r.set("parallel.speedup", speedup)
	r.set("parallel.efficiency", speedup/float64(e.cfg.Workers))
	r.set("parallel.model_speedup", model)
	modelErr := ratio(math.Abs(model-speedup), speedup)
	r.set("parallel.model_error", modelErr)
	if modelErr > e.cfg.ModelErrorBound {
		r.note("parallel.model_error %.3f exceeds the bound %.2f: the cost model predicts %.3fx, measured %.3fx",
			modelErr, e.cfg.ModelErrorBound, model, speedup)
	}
	r.set("obs.trace_overhead", ratio(searchS*k, untraced))
	reconcile(e, r, "sbp", residual, searchS)
	reconcile(e, r, "mcmc", mcmcResidual, mcmcBusy)
}

// reconcile notes a layer breakdown whose unaccounted part exceeds the
// configured share of the layer's wall time.
func reconcile(e *env, r *report, layer string, residual, total float64) {
	if share := ratio(math.Abs(residual), total); share > e.cfg.ResidualShareBound {
		r.note("%s layers do not reconcile: %.4fs of %.4fs (%.1f%%) unaccounted, bound %.0f%%",
			layer, residual, total, 100*share, 100*e.cfg.ResidualShareBound)
	}
}
