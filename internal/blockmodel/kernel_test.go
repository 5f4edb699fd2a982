package blockmodel_test

import (
	"testing"

	"repro/internal/blockmodel"
	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// kernelFixture builds a model with c non-empty blocks holding every
// structure the ΔS kernel special-cases: a singleton block 0 (moving
// vertex 0 empties it), self-loops on vertices 1 and 2, an out-leaf
// n−2 and an in-leaf n−1 of degree 1, and vertex x = c+1 whose move
// r → s = 5 cancels the corner edit (r,s): x has an in-edge from
// y = 2c in its own block 3 and an out-edge into vertex 5.
func kernelFixture(t *testing.T, c int) *blockmodel.Blockmodel {
	t.Helper()
	rn := rng.New(uint64(c))
	n := 3*c + 2
	assign := make([]int32, n)
	for v := range assign {
		switch {
		case v < c:
			assign[v] = int32(v)
		case v < 3*c:
			assign[v] = int32(v%(c-1)) + 1
		default:
			assign[v] = int32(rn.Intn(c-1)) + 1
		}
	}
	edges := []graph.Edge{{Src: 1, Dst: 1}, {Src: 2, Dst: 2}, {Src: 2, Dst: 2},
		{Src: int32(n - 2), Dst: 3}, {Src: 4, Dst: int32(n - 1)}, {Src: 0, Dst: 5}, {Src: 6, Dst: 0},
		{Src: int32(2 * c), Dst: int32(c + 1)}, {Src: int32(c + 1), Dst: 5}}
	for i := 0; i < 6*c; i++ {
		edges = append(edges, graph.Edge{Src: int32(rn.Intn(3 * c)), Dst: int32(rn.Intn(3 * c))})
	}
	bm, err := blockmodel.FromAssignment(graph.MustNew(n, edges), assign, c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if assign[c+1] != 3 || assign[2*c] != 3 || assign[5] != 5 || bm.Sizes[0] != 1 ||
		bm.G.Degree(n-2) != 1 || bm.G.Degree(n-1) != 1 {
		t.Fatal("fixture lost one of its special structures")
	}
	return bm
}

// TestKernelBothStorageModes checks EvalMove, HastingsCorrection and
// EvalMerge against the dense oracle in both block-matrix storage modes,
// on moves and merges whose edits overlap at the corners
// (r,s)/(s,r)/(r,r)/(s,s) of the changed rows and columns.
func TestKernelBothStorageModes(t *testing.T) {
	// One Scratch serves both fixtures, as a worker's does when the
	// block count crosses the storage threshold.
	sc := blockmodel.NewScratch()
	for _, c := range []int{12, sparse.DenseThreshold + 44} {
		bm := kernelFixture(t, c)
		if bm.M.IsDense() != (c <= sparse.DenseThreshold) {
			t.Fatalf("C=%d: dense storage %v", c, bm.M.IsDense())
		}
		n := bm.G.NumVertices()
		// adjacent returns a neighbour's block other than v's own.
		adjacent := func(v int) int32 {
			for i := 0; i < bm.G.Degree(v); i++ {
				if b := bm.Assignment[bm.G.Neighbor(v, i)]; b != bm.Assignment[v] {
					return b
				}
			}
			return (bm.Assignment[v] + 1) % int32(c)
		}
		type move struct {
			name string
			v    int
			s    int32
		}
		moves := []move{
			{"corner cancels", c + 1, 5},
			{"empties r", 0, adjacent(0)},
			{"empties r, far block", 0, int32(c - 1)},
			{"self-loop", 1, adjacent(1)},
			{"double self-loop", 2, int32(c - 2)},
			{"degree-1 out", n - 2, adjacent(n - 2)},
			{"degree-1 out, far block", n - 2, 0},
			{"degree-1 in", n - 1, adjacent(n - 1)},
			{"degree-1 in, far block", n - 1, 0},
		}
		rn := rng.New(7)
		for i := 0; i < 60; i++ {
			v := rn.Intn(n)
			s := adjacent(v)
			if i%3 == 0 {
				s = int32(rn.Intn(c))
			}
			if s != bm.Assignment[v] {
				moves = append(moves, move{"random", v, s})
			}
		}
		for _, mv := range moves {
			md := bm.EvalMove(mv.v, mv.s, bm.Assignment, sc)
			if err := check.CheckMoveDelta(bm, bm.Assignment, mv.v, mv.s, md.DeltaS); err != nil {
				t.Errorf("C=%d %s: %v", c, mv.name, err)
			}
			if err := check.CheckHastings(bm, bm.Assignment, mv.v, mv.s, bm.HastingsCorrection(&md)); err != nil {
				t.Errorf("C=%d %s: %v", c, mv.name, err)
			}
		}

		// Merges of adjacent blocks: every nonzero entry of every third
		// row, the singleton block 0 and diagonal entries included.
		for r := int32(0); r < int32(c); r += 3 {
			bm.M.RowNZ(int(r), func(s int32, _ int64) {
				if s == r {
					s = (r + 1) % int32(c)
				}
				if err := check.CheckMergeDelta(bm, r, s, bm.EvalMerge(r, s, sc)); err != nil {
					t.Errorf("C=%d merge %d→%d: %v", c, r, s, err)
				}
			})
		}
	}
}
