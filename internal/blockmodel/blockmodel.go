// Package blockmodel implements the degree-corrected stochastic
// blockmodel (DCSBM) state that stochastic block partitioning performs
// inference over: the community assignment vector, the C×C block matrix
// of edge counts, per-block degree totals, and the minimum description
// length (MDL) objective together with its incremental deltas for vertex
// moves and block merges.
package blockmodel

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// Blockmodel is the full inference state for one graph. All counts are
// derivable from (G, Assignment); the matrix and degree vectors are
// maintained incrementally for speed and can be revalidated with Validate.
//
// A Blockmodel is not safe for concurrent mutation. The asynchronous
// Gibbs engines read a Blockmodel concurrently while writing only their
// private membership copies, then apply the copy with RebuildFrom.
type Blockmodel struct {
	G *graph.Graph

	// C is the number of blocks, counting blocks that have become empty
	// through vertex moves (blocks are only renumbered by merges).
	C int

	// Assignment[v] is the block of vertex v, in [0, C).
	Assignment []int32

	// M[r][s] is the number of edges from block r to block s.
	M *sparse.Matrix

	// DOut[r], DIn[r], DTot[r] are the out-, in- and total degree of
	// block r (sums over member vertices; DTot = DOut + DIn).
	DOut, DIn, DTot []int64

	// Sizes[r] is the number of vertices in block r.
	Sizes []int32
}

// FromAssignment builds a consistent Blockmodel for g with the given
// assignment into c blocks. workers controls build parallelism (<=0 means
// GOMAXPROCS).
func FromAssignment(g *graph.Graph, assignment []int32, c int, workers int) (*Blockmodel, error) {
	if len(assignment) != g.NumVertices() {
		return nil, fmt.Errorf("blockmodel: assignment length %d != vertex count %d", len(assignment), g.NumVertices())
	}
	for v, b := range assignment {
		if b < 0 || int(b) >= c {
			return nil, fmt.Errorf("blockmodel: vertex %d assigned to block %d outside [0,%d)", v, b, c)
		}
	}
	bm := &Blockmodel{
		G:          g,
		C:          c,
		Assignment: append([]int32(nil), assignment...),
		M:          sparse.NewMatrix(c),
		DOut:       make([]int64, c),
		DIn:        make([]int64, c),
		DTot:       make([]int64, c),
		Sizes:      make([]int32, c),
	}
	bm.rebuildCounts(workers)
	return bm, nil
}

// FromCheckpoint rebuilds a blockmodel from a checkpointed membership
// and verifies the rebuilt description length equals the stored one
// bit-for-bit. Edge counts are integers, so the MDL recomputation is
// exact regardless of rebuild parallelism — any mismatch means the
// membership does not belong to this graph (wrong file, wrong graph,
// or corruption the container checksum cannot see), and resuming from
// it would silently diverge.
func FromCheckpoint(g *graph.Graph, membership []int32, c int, wantMDL float64, workers int) (*Blockmodel, error) {
	bm, err := FromAssignment(g, membership, c, workers)
	if err != nil {
		return nil, err
	}
	if got := bm.MDL(); got != wantMDL {
		return nil, fmt.Errorf("blockmodel: checkpoint MDL mismatch: rebuilt %v, stored %v (membership does not match this graph)", got, wantMDL)
	}
	return bm, nil
}

// Identity returns the trivial blockmodel with every vertex in its own
// block — the starting state of SBP.
func Identity(g *graph.Graph, workers int) *Blockmodel {
	n := g.NumVertices()
	assignment := make([]int32, n)
	for v := range assignment {
		assignment[v] = int32(v)
	}
	bm, err := FromAssignment(g, assignment, n, workers)
	if err != nil {
		panic(err) // identity assignment is always valid
	}
	return bm
}

// rebuildCounts recomputes M, degrees and sizes from Assignment. It is
// the construction path (FromAssignment, Identity, Compact); sweep
// boundaries use the incremental RebuildFrom instead. The degree and
// size accumulation is parallelised over vertex ranges with per-worker
// partial vectors; the matrix fill is parallelised over source-vertex
// ranges with per-worker partial matrices that are merged.
func (bm *Blockmodel) rebuildCounts(workers int) {
	n := bm.G.NumVertices()
	c := bm.C
	workers = parallel.DefaultWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	type partial struct {
		m     *sparse.Matrix
		dOut  []int64
		dIn   []int64
		sizes []int32
	}
	parts := make([]partial, workers)
	parallel.ForChunked(n, workers, func(lo, hi, w int) {
		p := partial{
			m:     sparse.NewMatrix(c),
			dOut:  make([]int64, c),
			dIn:   make([]int64, c),
			sizes: make([]int32, c),
		}
		for v := lo; v < hi; v++ {
			r := bm.Assignment[v]
			p.sizes[r]++
			out := bm.G.OutNeighbors(v)
			p.dOut[r] += int64(len(out))
			p.dIn[r] += int64(bm.G.InDegree(v))
			for _, u := range out {
				p.m.Add(int(r), int(bm.Assignment[u]), 1)
			}
		}
		parts[w] = p
	})

	m := sparse.NewMatrix(c)
	dOut := make([]int64, c)
	dIn := make([]int64, c)
	sizes := make([]int32, c)
	for _, p := range parts {
		if p.m == nil {
			continue
		}
		for r := 0; r < c; r++ {
			dOut[r] += p.dOut[r]
			dIn[r] += p.dIn[r]
			sizes[r] += p.sizes[r]
			p.m.RowNZ(r, func(s int32, count int64) {
				m.Add(r, int(s), count)
			})
		}
	}
	bm.M = m
	bm.DOut = dOut
	bm.DIn = dIn
	bm.Sizes = sizes
	bm.DTot = make([]int64, c)
	for r := 0; r < c; r++ {
		bm.DTot[r] = dOut[r] + dIn[r]
	}
}

// RebuildFrom replaces the assignment with membership and brings the
// counts up to date: the "rebuild B from community_membership" step
// after each asynchronous sweep (Algorithms 3 and 4). It applies only the
// difference from the current Assignment. Every edge incident to a moved
// vertex leaves its old cell and enters its new one exactly once (an
// edge between two moved vertices, or a self-loop, through its source's
// out-edges), so the counts, and hence MDL, equal a full recount's, at
// O(V + Σ deg moved) with no allocation. The counts must be consistent
// with Assignment on entry, as every mutator keeps them.
func (bm *Blockmodel) RebuildFrom(membership []int32) {
	old := bm.Assignment
	for v, s := range membership {
		r := old[v]
		if r == s {
			continue
		}
		for _, u := range bm.G.OutNeighbors(v) {
			bm.M.Add(int(r), int(old[u]), -1)
			bm.M.Add(int(s), int(membership[u]), 1)
		}
		for _, u := range bm.G.InNeighbors(v) {
			if t := old[u]; t == membership[u] {
				bm.M.Add(int(t), int(r), -1)
				bm.M.Add(int(t), int(s), 1)
			}
		}
		kOut := int64(bm.G.OutDegree(v))
		kIn := int64(bm.G.InDegree(v))
		bm.DOut[r] -= kOut
		bm.DOut[s] += kOut
		bm.DIn[r] -= kIn
		bm.DIn[s] += kIn
		bm.DTot[r] = bm.DOut[r] + bm.DIn[r]
		bm.DTot[s] = bm.DOut[s] + bm.DIn[s]
		bm.Sizes[r]--
		bm.Sizes[s]++
	}
	copy(bm.Assignment, membership)
}

// Clone returns a deep copy of bm (sharing the immutable graph).
func (bm *Blockmodel) Clone() *Blockmodel {
	return &Blockmodel{
		G:          bm.G,
		C:          bm.C,
		Assignment: append([]int32(nil), bm.Assignment...),
		M:          bm.M.Clone(),
		DOut:       append([]int64(nil), bm.DOut...),
		DIn:        append([]int64(nil), bm.DIn...),
		DTot:       append([]int64(nil), bm.DTot...),
		Sizes:      append([]int32(nil), bm.Sizes...),
	}
}

// NumNonEmptyBlocks returns the number of blocks with at least one vertex.
func (bm *Blockmodel) NumNonEmptyBlocks() int {
	n := 0
	for _, s := range bm.Sizes {
		if s > 0 {
			n++
		}
	}
	return n
}

// Compact renumbers blocks to remove empty ones, returning the mapping
// from old to new block ids (-1 for removed blocks). Used after the merge
// phase and after MCMC phases that empty blocks.
func (bm *Blockmodel) Compact(workers int) []int32 {
	remap := make([]int32, bm.C)
	next := int32(0)
	for r := 0; r < bm.C; r++ {
		if bm.Sizes[r] > 0 {
			remap[r] = next
			next++
		} else {
			remap[r] = -1
		}
	}
	if int(next) == bm.C {
		return remap
	}
	for v := range bm.Assignment {
		bm.Assignment[v] = remap[bm.Assignment[v]]
	}
	bm.C = int(next)
	bm.rebuildCounts(workers)
	return remap
}

// Validate recomputes all counts from scratch and reports the first
// inconsistency found, or nil. Used by tests and failure-injection
// checks; O(V + E).
func (bm *Blockmodel) Validate() error {
	fresh, err := FromAssignment(bm.G, bm.Assignment, bm.C, 1)
	if err != nil {
		return err
	}
	if !bm.M.Equal(fresh.M) {
		return fmt.Errorf("blockmodel: block matrix inconsistent with assignment")
	}
	for r := 0; r < bm.C; r++ {
		if bm.DOut[r] != fresh.DOut[r] {
			return fmt.Errorf("blockmodel: DOut[%d]=%d, want %d", r, bm.DOut[r], fresh.DOut[r])
		}
		if bm.DIn[r] != fresh.DIn[r] {
			return fmt.Errorf("blockmodel: DIn[%d]=%d, want %d", r, bm.DIn[r], fresh.DIn[r])
		}
		if bm.DTot[r] != fresh.DTot[r] {
			return fmt.Errorf("blockmodel: DTot[%d]=%d, want %d", r, bm.DTot[r], fresh.DTot[r])
		}
		if bm.Sizes[r] != fresh.Sizes[r] {
			return fmt.Errorf("blockmodel: Sizes[%d]=%d, want %d", r, bm.Sizes[r], fresh.Sizes[r])
		}
	}
	return nil
}
