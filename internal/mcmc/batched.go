package mcmc

import (
	"repro/internal/blockmodel"
	"repro/internal/check"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// runBatched implements batched asynchronous SBP (B-SBP), the extension
// the paper's conclusion sketches: "Speeding up the graph reconstruction
// phase would also make batched A-SBP possible, which could potentially
// provide similar benefits to H-SBP without the need for synchronous
// processing."
//
// Each sweep is split into cfg.Batches groups of vertices; after every
// group's fully parallel pass the blockmodel is rebuilt, so proposals
// are at most 1/Batches of a sweep stale instead of a whole sweep. The
// rebuild applies only the batch's accepted moves (RebuildFrom), so its
// cost follows the moved vertices' degrees, not E: this is the faster
// reconstruction the quote asks for. Batches = 1 degenerates to A-SBP;
// Batches = V would be the serial chain (with rebuild overhead). The
// staleness ablation benchmark sweeps this knob.
func runBatched(bm *blockmodel.Blockmodel, cfg Config, rn *rng.RNG, po *phaseObs) Stats {
	st := Stats{Algorithm: BatchedGibbs, InitialS: bm.MDL()}
	workers := parallel.DefaultWorkers(cfg.Workers)
	workerRNGs := engineRNGs(&cfg, rn, workers)
	scratches := newScratches(workers)

	batches := cfg.Batches
	if batches < 1 {
		batches = DefaultBatches
	}
	n := bm.G.NumVertices()
	if batches > n {
		batches = n
	}
	// Static contiguous batches: vertex order is fixed, so results are
	// deterministic for a given seed and worker count.
	groups := make([][]int32, 0, batches)
	for b := 0; b < batches; b++ {
		lo := b * n / batches
		hi := (b + 1) * n / batches
		group := make([]int32, 0, hi-lo)
		for v := lo; v < hi; v++ {
			group = append(group, int32(v))
		}
		groups = append(groups, group)
	}

	// One partition plan per batch; each sweep reuses all of them.
	plans := make([]passPlan, len(groups))
	for i, group := range groups {
		plans[i] = newPassPlan(bm, group, workers, cfg.Partition)
	}

	next := make([]int32, n)
	// Mid-sweep rebuilds advance bm between batches, so cancellation
	// rolls the membership back to the sweep boundary. The master
	// stream is untouched inside a sweep (no serial pass).
	gd := newGuard(&cfg, bm, rn, workerRNGs, &st, true, false)
	startSweep, prev := gd.start()
	done := gd.done()
	for sweep := startSweep; sweep < cfg.MaxSweeps; sweep++ {
		if gd.enter(sweep, prev) {
			return st
		}
		// Batches may partition into fewer ranges than workers; size the
		// record for the widest batch so worker ids index it directly.
		sp := po.sweep(sweep, workers, &st)
		for _, plan := range plans {
			if asyncPass(bm, plan, next, cfg, workerRNGs, scratches, &st, sp, done) {
				gd.abort(sweep)
				return st
			}
			rebuild(bm, next, &st, sp)
			if cfg.Verify {
				// Per-batch, not just per-sweep: a corrupted mid-sweep
				// rebuild is caught before the next batch consumes it.
				check.MustInvariants(bm, "batched post-rebuild invariants")
			}
		}
		st.Sweeps++
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
