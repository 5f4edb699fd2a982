package main

import (
	"time"

	"repro/internal/blockmodel"
	"repro/internal/graph"
	"repro/internal/merge"
	"repro/internal/rng"
)

// probeSink keeps the probed results alive so the calls are not elided.
var probeSink float64

// probeLayers times direct calls into merge and blockmodel on the
// workload graph in two states: iteration 1 of a search (the identity
// state merged down to C = V/2, sparse) and dense, a final state.
func probeLayers(e *env, r *report, tr *tracer, g *graph.Graph, dense *blockmodel.Blockmodel) {
	w := e.cfg.Workers
	cfg := merge.DefaultConfig()
	cfg.Workers = w
	var sparse *blockmodel.Blockmodel
	var phase []float64
	for i := 0; i < 3; i++ {
		sparse = blockmodel.Identity(g, w)
		id := tr.open(-1, "merge", "merge.Phase")
		t := time.Now()
		merge.Phase(sparse, sparse.C/2, cfg, rng.New(e.seed))
		phase = append(phase, since(t)*1e3)
		tr.close(id)
	}
	r.set("merge.phase_ms", median(phase))

	r.set("blockmodel.eval_ns", evalNS(tr, sparse, e.seed))
	r.set("blockmodel.eval_dense_ns", evalNS(tr, dense, e.seed))
	var mdl, rebuild []float64
	for i := 0; i < 5; i++ {
		id := tr.open(-1, "blockmodel", "MDL")
		t := time.Now()
		probeSink += sparse.MDL()
		mdl = append(mdl, since(t)*1e3)
		tr.close(id)

		id = tr.open(-1, "blockmodel", "FromAssignment")
		t = time.Now()
		bm, err := blockmodel.FromAssignment(g, sparse.Assignment, sparse.C, w)
		rebuild = append(rebuild, since(t)*1e3)
		tr.close(id)
		if err == nil {
			probeSink += float64(bm.C)
		}
	}
	r.set("blockmodel.mdl_ms", median(mdl))
	r.set("blockmodel.rebuild_ms", median(rebuild))
	r.set("blockmodel.nnz", float64(sparse.M.NonZeros()))
	// Computed, not measured: a rebuild reads each edge's two endpoints
	// and their two block ids (4 bytes each) and updates one 8-byte block
	// count, then writes three 8-byte degrees and a 4-byte size per block.
	r.set("blockmodel.rebuild_bytes", float64(24*g.NumEdges()+28*sparse.C))
}

// evalNS returns the median cost of one proposal evaluation — propose,
// EvalMove and HastingsCorrection — over batches of random vertices,
// skipping proposals that keep the vertex in place as the engines do.
func evalNS(tr *tracer, bm *blockmodel.Blockmodel, seed uint64) float64 {
	const batches, batch = 101, 64
	id := tr.open(-1, "blockmodel", "EvalMove")
	defer tr.close(id)
	rn := rng.New(seed)
	sc := blockmodel.NewScratch()
	n := bm.G.NumVertices()
	per := make([]float64, 0, batches)
	for i := 0; i < batches; i++ {
		evals := 0
		t := time.Now()
		for j := 0; j < batch; j++ {
			v := rn.Intn(n)
			s := bm.ProposeVertexMove(v, bm.Assignment, rn)
			if s == bm.Assignment[v] {
				continue
			}
			md := bm.EvalMove(v, s, bm.Assignment, sc)
			probeSink += md.DeltaS + bm.HastingsCorrection(&md)
			evals++
		}
		if evals > 0 {
			per = append(per, float64(time.Since(t).Nanoseconds())/float64(evals))
		}
	}
	return median(per)
}
