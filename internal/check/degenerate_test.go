package check

// Degenerate-case tests: the Hastings correction and ΔMDL paths on the
// states where the incremental bookkeeping is easiest to get wrong —
// isolated vertices, single-community graphs, moves to the vertex's own
// block, and self-loop-heavy vertices — each cross-checked against the
// dense oracle.

import (
	"testing"

	"repro/internal/blockmodel"
	"repro/internal/graph"
)

func mustModel(t *testing.T, g *graph.Graph, b []int32, c int) *blockmodel.Blockmodel {
	t.Helper()
	bm, err := blockmodel.FromAssignment(g, b, c, 1)
	if err != nil {
		t.Fatalf("FromAssignment: %v", err)
	}
	return bm
}

func TestIsolatedVertexMove(t *testing.T) {
	// Vertex 0 has no edges at all; moving it changes no block count and
	// no block degree, so ΔS must be exactly 0 and the Hastings
	// correction exactly 1 — and the oracle must agree.
	g := graph.MustNew(5, []graph.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4}, {Src: 4, Dst: 1}})
	bm := mustModel(t, g, []int32{0, 0, 1, 1, 2}, 3)
	sc := blockmodel.NewScratch()
	for s := int32(0); s < int32(bm.C); s++ {
		md := bm.EvalMove(0, s, bm.Assignment, sc)
		if md.DeltaS != 0 {
			t.Fatalf("isolated vertex move to %d: ΔS=%g, want exactly 0", s, md.DeltaS)
		}
		if err := CheckMoveDelta(bm, bm.Assignment, 0, s, md.DeltaS); err != nil {
			t.Fatal(err)
		}
		h := bm.HastingsCorrection(&md)
		if h != 1 {
			t.Fatalf("isolated vertex move to %d: Hastings=%g, want exactly 1", s, h)
		}
		if err := CheckHastings(bm, bm.Assignment, 0, s, h); err != nil {
			t.Fatal(err)
		}
	}
	// An isolated vertex's move is actually applicable; the state must
	// stay consistent.
	md := bm.EvalMove(0, 1, bm.Assignment, sc)
	bm.ApplyMove(md)
	if err := Invariants(bm); err != nil {
		t.Fatalf("after isolated-vertex move: %v", err)
	}
}

func TestSingleCommunityGraph(t *testing.T) {
	// With C=1 the only possible proposal is the vertex's own block:
	// ΔS = 0, Hastings = 1, and the MDL equals the null description
	// length the paper normalises by.
	g := graph.MustNew(6, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 5}, {Src: 5, Dst: 3}, {Src: 0, Dst: 3},
	})
	bm := mustModel(t, g, make([]int32, 6), 1)
	sc := blockmodel.NewScratch()
	for v := 0; v < 6; v++ {
		md := bm.EvalMove(v, 0, bm.Assignment, sc)
		if md.DeltaS != 0 {
			t.Fatalf("v=%d: ΔS=%g in a single-community graph, want 0", v, md.DeltaS)
		}
		if h := bm.HastingsCorrection(&md); h != 1 {
			t.Fatalf("v=%d: Hastings=%g in a single-community graph, want 1", v, h)
		}
	}
	if err := Invariants(bm); err != nil {
		t.Fatal(err)
	}
	o := MustOracle(g, bm.Assignment, 1)
	null := blockmodel.NullDescriptionLength(g.NumVertices(), g.NumEdges())
	if !withinTol(o.MDL(), null) {
		t.Fatalf("single-community oracle MDL %g != null description length %g", o.MDL(), null)
	}
}

func TestMoveToOwnBlock(t *testing.T) {
	bm := randomModel(t, 99, 14, 4, 42)
	sc := blockmodel.NewScratch()
	for v := 0; v < bm.G.NumVertices(); v++ {
		r := bm.Assignment[v]
		md := bm.EvalMove(v, r, bm.Assignment, sc)
		if md.DeltaS != 0 {
			t.Fatalf("v=%d: ΔS=%g for a move to its own block, want exactly 0", v, md.DeltaS)
		}
		if got := MustOracle(bm.G, bm.Assignment, bm.C).MoveDelta(v, r); got != 0 {
			t.Fatalf("v=%d: oracle ΔS=%g for a no-op move, want 0", v, got)
		}
		if h := bm.HastingsCorrection(&md); h != 1 {
			t.Fatalf("v=%d: Hastings=%g for a no-op move, want exactly 1", v, h)
		}
		// ApplyMove on a no-op must leave the state untouched.
		bm.ApplyMove(md)
	}
	if err := Invariants(bm); err != nil {
		t.Fatal(err)
	}
}

func TestSelfLoopHeavyVertexMove(t *testing.T) {
	// Self-loops transfer M[r][r] → M[s][s] in one step and contribute
	// 2 endpoints per loop to the Hastings neighbour weights; both are
	// special-cased incrementally, so check them against the oracle.
	g := graph.MustNew(4, []graph.Edge{
		{Src: 0, Dst: 0}, {Src: 0, Dst: 0}, {Src: 0, Dst: 1},
		{Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0},
	})
	bm := mustModel(t, g, []int32{0, 0, 1, 1}, 2)
	sc := blockmodel.NewScratch()
	md := bm.EvalMove(0, 1, bm.Assignment, sc)
	if err := CheckMoveDelta(bm, bm.Assignment, 0, 1, md.DeltaS); err != nil {
		t.Fatal(err)
	}
	h := bm.HastingsCorrection(&md)
	if err := CheckHastings(bm, bm.Assignment, 0, 1, h); err != nil {
		t.Fatal(err)
	}
	bm.ApplyMove(md)
	if err := Invariants(bm); err != nil {
		t.Fatalf("after self-loop vertex move: %v", err)
	}
	if got, want := bm.M.Get(1, 1), int64(0)+2+1; got < 2 {
		t.Fatalf("self-loops did not follow the vertex: M[1][1]=%d, want >= 2 (had %d planned)", got, want)
	}
}

func TestMergeDegenerateCases(t *testing.T) {
	bm := randomModel(t, 101, 12, 4, 36)
	sc := blockmodel.NewScratch()
	// Merging a block into itself is a no-op with ΔS = 0.
	for r := int32(0); r < int32(bm.C); r++ {
		if d := bm.EvalMerge(r, r, sc); d != 0 {
			t.Fatalf("merge %d→%d: ΔS=%g, want exactly 0", r, r, d)
		}
		if d := MustOracle(bm.G, bm.Assignment, bm.C).MergeDelta(r, r); d != 0 {
			t.Fatalf("oracle merge %d→%d: ΔS=%g, want 0", r, r, d)
		}
	}
	// Merging an empty block is a no-op too.
	membership := append([]int32(nil), bm.Assignment...)
	for v, b := range membership {
		if b == 3 {
			membership[v] = 0
		}
	}
	bm.RebuildFrom(membership)
	d := bm.EvalMerge(3, 1, sc)
	if d != 0 {
		t.Fatalf("merging empty block: ΔS=%g, want 0", d)
	}
	if err := CheckMergeDelta(bm, 3, 1, d); err != nil {
		t.Fatal(err)
	}
}
