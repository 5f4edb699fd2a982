package mcmc

import (
	"math"
	"time"

	"repro/internal/blockmodel"
	"repro/internal/check"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// runHybrid is Algorithm 4 (H-SBP). Vertices are sorted by degree once;
// the top HybridFraction (V*) is processed with one serial Metropolis-
// Hastings pass per sweep — live blockmodel updates, so the most
// influential vertices always see fresh state and get "a chance to switch
// communities first" — and the remainder (V⁻) with one asynchronous
// Gibbs pass evaluated against the blockmodel that already includes the
// V* moves. The blockmodel is then rebuilt from the combined membership.
func runHybrid(bm *blockmodel.Blockmodel, cfg Config, rn *rng.RNG, po *phaseObs) Stats {
	st := Stats{Algorithm: Hybrid, InitialS: bm.MDL()}
	workers := parallel.DefaultWorkers(cfg.Workers)
	workerRNGs := engineRNGs(&cfg, rn, workers)
	scratches := newScratches(workers)
	serialScratch := blockmodel.NewScratch()

	vStar, vMinus := SplitByDegree(bm, cfg.HybridFraction)
	next := make([]int32, len(bm.Assignment))
	plan := newPassPlan(bm, vMinus, workers, cfg.Partition)
	// The serial V* pass mutates bm live and consumes the master stream
	// mid-sweep, so cancellation rolls both back to the sweep boundary.
	gd := newGuard(&cfg, bm, rn, workerRNGs, &st, true, true)
	startSweep, prev := gd.start()
	done := gd.done()

	for sweep := startSweep; sweep < cfg.MaxSweeps; sweep++ {
		if gd.enter(sweep, prev) {
			return st
		}
		sp := po.sweep(sweep, len(plan.ranges), &st)

		// Synchronous pass over V*: identical to the serial engine's
		// inner loop, charged as serial work.
		start := time.Now()
		for i, v := range vStar {
			if done != nil && i&255 == 0 && gd.cancelled() {
				gd.abort(sweep)
				return st
			}
			serialStep(bm, int(v), cfg, rn, serialScratch, &st)
		}
		ns := float64(time.Since(start).Nanoseconds())
		sp.serial(ns)
		st.Cost.AddSerial(ns)

		// Asynchronous pass over V⁻ against the post-V* blockmodel.
		if asyncPass(bm, plan, next, cfg, workerRNGs, scratches, &st, sp, done) {
			gd.abort(sweep)
			return st
		}
		rebuild(bm, next, &st, sp)

		st.Sweeps++
		if cfg.Verify {
			check.MustInvariants(bm, "hybrid post-sweep invariants")
		}
		cur := bm.MDL()
		st.PerSweep = append(st.PerSweep, sp.finish(&st, cur))
		if converged(prev, cur, cfg.Threshold) {
			st.Converged = true
			st.FinalS = cur
			return st
		}
		prev = cur
	}
	st.FinalS = bm.MDL()
	return st
}

// SplitByDegree partitions the vertex set into (V*, V⁻): the ceil(
// fraction·V) highest-total-degree vertices and the rest. Exposed for the
// V*-selection ablation.
func SplitByDegree(bm *blockmodel.Blockmodel, fraction float64) (vStar, vMinus []int32) {
	order := bm.G.VerticesByDegreeDesc()
	k := int(math.Ceil(fraction * float64(len(order))))
	if fraction > 0 && k == 0 {
		k = 1
	}
	if k > len(order) {
		k = len(order)
	}
	return order[:k], order[k:]
}
