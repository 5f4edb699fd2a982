package mcmc

import (
	"sync/atomic"
	"time"

	"repro/internal/blockmodel"
	"repro/internal/check"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// passPlan is the precomputed work partition of one asynchronous vertex
// set: which vertices the pass visits (nil = all of [0, n)) and the
// contiguous index range each worker owns. Degrees do not change during
// a phase, so engines build each plan once and reuse it every sweep.
type passPlan struct {
	vertices []int32
	ranges   []parallel.Range
}

// newPassPlan partitions the vertex set for the configured number of
// workers. PartitionDegree weights vertex v by Degree(v)+1 — proposal
// evaluation walks v's adjacency, so total degree is the dominant cost
// and the +1 models the fixed per-vertex overhead that keeps
// zero-degree vertices from being free — and PartitionStatic keeps the
// equal-count chunks of the original implementation.
func newPassPlan(bm *blockmodel.Blockmodel, vertices []int32, workers int, strategy Partition) passPlan {
	n := bm.G.NumVertices()
	if vertices != nil {
		n = len(vertices)
	}
	var ranges []parallel.Range
	if strategy == PartitionStatic {
		ranges = parallel.StaticRanges(n, workers)
	} else {
		ranges = parallel.BalancedRanges(n, workers, func(i int) int64 {
			v := i
			if vertices != nil {
				v = int(vertices[i])
			}
			return int64(bm.G.Degree(v)) + 1
		})
	}
	return passPlan{vertices: vertices, ranges: ranges}
}

// runAsync is Algorithm 3 (A-SBP): every sweep evaluates all vertices in
// parallel against the blockmodel from the end of the previous sweep
// ("at most one iteration stale", §3.1), records accepted moves in a
// private membership vector, then applies the vector's moves to the
// blockmodel (rebuild).
func runAsync(bm *blockmodel.Blockmodel, cfg Config, rn *rng.RNG, po *phaseObs) Stats {
	st := Stats{Algorithm: AsyncGibbs, InitialS: bm.MDL()}
	workers := parallel.DefaultWorkers(cfg.Workers)
	workerRNGs := engineRNGs(&cfg, rn, workers)
	scratches := newScratches(workers)
	next := make([]int32, len(bm.Assignment))
	plan := newPassPlan(bm, nil, workers, cfg.Partition)
	// The pass mutates only next and the worker streams; bm stays at the
	// boundary until the rebuild, so no membership rollback is needed.
	gd := newGuard(&cfg, bm, rn, workerRNGs, &st, false, false)
	startSweep, prev := gd.start()
	done := gd.done()

	for sweep := startSweep; sweep < cfg.MaxSweeps; sweep++ {
		if gd.enter(sweep, prev) {
			return st
		}
		sp := po.sweep(sweep, len(plan.ranges), &st)
		if asyncPass(bm, plan, next, cfg, workerRNGs, scratches, &st, sp, done) {
			gd.abort(sweep)
			return st
		}
		rebuild(bm, next, &st, sp)
		st.Sweeps++
		if cfg.Verify {
			check.MustInvariants(bm, "async post-sweep invariants")
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

// asyncPass runs one asynchronous Gibbs pass over the plan's vertex
// set. Proposals read bm (stale, frozen during the pass); accepted
// moves write next[v]. Each worker owns a contiguous index range, so
// all writes are disjoint and the pass is race-free.
//
// next must already hold the membership the pass should start from
// (the caller copies bm.Assignment or carries the vector forward).
// Per-worker busy times feed the sweep probe, whose record must be at
// least len(plan.ranges) wide.
//
// done, when non-nil, is the cancellation channel: workers poll it (and
// a shared abort flag) every 256 vertices and unwind early. The return
// value reports whether the pass aborted; an aborted pass leaves next
// partially written and the worker streams mid-sweep, so the caller
// must discard both and roll back to the sweep boundary.
func asyncPass(bm *blockmodel.Blockmodel, plan passPlan, next []int32, cfg Config, workerRNGs []*rng.RNG, scratches []*blockmodel.Scratch, st *Stats, sp *sweepProbe, done <-chan struct{}) bool {
	copy(next, bm.Assignment)
	var proposals, accepts atomic.Int64
	var aborted atomic.Bool
	workTimes := make([]float64, len(plan.ranges))
	parallel.ForRanges(plan.ranges, func(lo, hi, w int) {
		start := time.Now()
		rw := workerRNGs[w]
		sc := scratches[w]
		var localProp, localAcc int64
		for i := lo; i < hi; i++ {
			if done != nil && (i-lo)&255 == 0 && passCancelled(done, &aborted) {
				break
			}
			v := i
			if plan.vertices != nil {
				v = int(plan.vertices[i])
			}
			s := bm.ProposeVertexMove(v, bm.Assignment, rw)
			r := bm.Assignment[v]
			if s == r {
				continue
			}
			localProp++
			md := bm.EvalMove(v, s, bm.Assignment, sc)
			if cfg.Verify {
				// The pass evaluates against the frozen pre-pass state, so
				// the oracle is built from the same membership the counts
				// derive from. The panic on divergence propagates out of
				// the worker pool to the caller.
				check.MustMoveDelta(bm, bm.Assignment, v, s, md.DeltaS)
			}
			if md.EmptiesSrc && !cfg.AllowEmptyBlocks {
				continue
			}
			h := bm.HastingsCorrection(&md)
			if cfg.Verify {
				check.MustHastings(bm, bm.Assignment, v, s, h)
			}
			if accept(&md, h, cfg.Beta, rw) {
				next[v] = s
				localAcc++
			}
		}
		proposals.Add(localProp)
		accepts.Add(localAcc)
		workTimes[w] = float64(time.Since(start).Nanoseconds())
	})
	st.Proposals += proposals.Load()
	st.Accepts += accepts.Load()
	st.Cost.AddParallel(sp.pass(workTimes))
	return aborted.Load()
}

// passCancelled polls the cancellation channel and the shared abort
// flag from inside a worker loop, spreading the abort to every worker.
func passCancelled(done <-chan struct{}, aborted *atomic.Bool) bool {
	if aborted.Load() {
		return true
	}
	select {
	case <-done:
		aborted.Store(true)
		return true
	default:
		return false
	}
}

// rebuild brings the blockmodel up to the updated membership by
// applying the pass's accepted moves (blockmodel.RebuildFrom), and
// charges the work to the serial account: the update is one loop over
// the moved vertices' edges. The paper instead rebuilds B from scratch
// in parallel; the diff gives identical counts at O(Σ deg moved).
func rebuild(bm *blockmodel.Blockmodel, next []int32, st *Stats, sp *sweepProbe) {
	start := time.Now()
	bm.RebuildFrom(next)
	ns := float64(time.Since(start).Nanoseconds())
	sp.rebuild(ns)
	st.Cost.AddSerial(ns)
}

// splitRNGs derives one independent stream per worker from the master.
func splitRNGs(rn *rng.RNG, workers int) []*rng.RNG {
	out := make([]*rng.RNG, workers)
	for i := range out {
		out[i] = rn.Split()
	}
	return out
}

// newScratches allocates one evaluation Scratch per worker.
func newScratches(workers int) []*blockmodel.Scratch {
	out := make([]*blockmodel.Scratch, workers)
	for i := range out {
		out[i] = blockmodel.NewScratch()
	}
	return out
}
