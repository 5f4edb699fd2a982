package blockmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

// likelihoodEntropy returns the full description-length entropy −L(G|B),
// recomputed from scratch — the ground truth that incremental deltas
// must match.
func likelihoodEntropy(bm *Blockmodel) float64 {
	return -bm.LogLikelihood()
}

// TestEvalMoveMatchesRecompute is the central correctness property: for
// random graphs, assignments and moves, the incremental ΔS must equal
// the difference of full recomputations to floating-point accuracy.
func TestEvalMoveMatchesRecompute(t *testing.T) {
	r := rng.New(1234)
	sc := NewScratch()
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		n := rr.Intn(20) + 4
		e := rr.Intn(80) + 4
		c := rr.Intn(5) + 2
		g, assign := randomGraph(rr, n, e, c)
		bm, err := FromAssignment(g, assign, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		v := r.Intn(n)
		s := int32(r.Intn(c))
		md := bm.EvalMove(v, s, bm.Assignment, sc)
		before := likelihoodEntropy(bm)

		// Recompute from scratch with the move applied.
		moved := append([]int32(nil), assign...)
		moved[v] = s
		after, err := FromAssignment(g, moved, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := likelihoodEntropy(after) - before
		return math.Abs(md.DeltaS-want) < 1e-9*(1+math.Abs(want))
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEvalMoveSameBlockIsZero(t *testing.T) {
	g, assign := fixture(t)
	bm, _ := FromAssignment(g, assign, 2, 1)
	sc := NewScratch()
	md := bm.EvalMove(0, 0, bm.Assignment, sc)
	if md.DeltaS != 0 {
		t.Fatalf("ΔS for no-op move = %v", md.DeltaS)
	}
}

func TestApplyMoveKeepsModelConsistent(t *testing.T) {
	r := rng.New(55)
	g, assign := randomGraph(r, 30, 120, 4)
	bm, err := FromAssignment(g, assign, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	for i := 0; i < 50; i++ {
		v := r.Intn(30)
		s := int32(r.Intn(4))
		md := bm.EvalMove(v, s, bm.Assignment, sc)
		bm.ApplyMove(md)
	}
	if err := bm.Validate(); err != nil {
		t.Fatalf("model inconsistent after moves: %v", err)
	}
}

func TestApplyMoveMDLTracksDelta(t *testing.T) {
	// After applying a move, the model's entropy must shift by exactly
	// the evaluated ΔS (the model-complexity term is unchanged when no
	// block empties).
	r := rng.New(77)
	g, assign := randomGraph(r, 25, 150, 5)
	bm, err := FromAssignment(g, assign, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	for i := 0; i < 30; i++ {
		v := r.Intn(25)
		s := int32(r.Intn(5))
		md := bm.EvalMove(v, s, bm.Assignment, sc)
		if md.EmptiesSrc {
			continue
		}
		before := likelihoodEntropy(bm)
		bm.ApplyMove(md)
		got := likelihoodEntropy(bm) - before
		if math.Abs(got-md.DeltaS) > 1e-9*(1+math.Abs(got)) {
			t.Fatalf("step %d: applied delta %v != evaluated %v", i, got, md.DeltaS)
		}
	}
}

func TestEmptiesSrcFlag(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	bm, err := FromAssignment(g, []int32{0, 1, 1}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	md := bm.EvalMove(0, 1, bm.Assignment, sc)
	if !md.EmptiesSrc {
		t.Fatal("moving the sole member of block 0 should set EmptiesSrc")
	}
	md2 := bm.EvalMove(1, 0, bm.Assignment, sc)
	if md2.EmptiesSrc {
		t.Fatal("moving one of two members should not set EmptiesSrc")
	}
}

func TestSelfLoopMove(t *testing.T) {
	// A vertex with a self-loop moving between blocks must carry the
	// loop to the target diagonal.
	g := graph.MustNew(2, []graph.Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 1}})
	bm, err := FromAssignment(g, []int32{0, 1}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	md := bm.EvalMove(0, 1, bm.Assignment, sc)
	bm.ApplyMove(md)
	if got := bm.M.Get(1, 1); got != 2 {
		t.Fatalf("M[1][1] after move = %d, want 2 (loop + edge)", got)
	}
	if got := bm.M.Get(0, 0); got != 0 {
		t.Fatalf("M[0][0] after move = %d, want 0", got)
	}
	if err := bm.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEvalMergeMatchesRecompute checks the merge delta against full
// recomputation over random models.
func TestEvalMergeMatchesRecompute(t *testing.T) {
	sc := NewScratch()
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		n := rr.Intn(20) + 6
		e := rr.Intn(100) + 5
		c := rr.Intn(5) + 3
		g, assign := randomGraph(rr, n, e, c)
		bm, err := FromAssignment(g, assign, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := int32(rr.Intn(c))
		s := int32(rr.Intn(c))
		if r == s {
			return true
		}
		got := bm.EvalMerge(r, s, sc)
		before := likelihoodEntropy(bm)

		merged := append([]int32(nil), assign...)
		for v := range merged {
			if merged[v] == r {
				merged[v] = s
			}
		}
		after, err := FromAssignment(g, merged, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := likelihoodEntropy(after) - before
		return math.Abs(got-want) < 1e-9*(1+math.Abs(want))
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEvalMergeSelfIsZero(t *testing.T) {
	g, assign := fixture(t)
	bm, _ := FromAssignment(g, assign, 2, 1)
	if got := bm.EvalMerge(1, 1, NewScratch()); got != 0 {
		t.Fatalf("self-merge delta = %v", got)
	}
}

func TestEvalMoveAgainstAlternativeMembership(t *testing.T) {
	// The asynchronous engines evaluate moves against a membership
	// vector that differs from bm.Assignment; the counts must follow
	// the supplied vector.
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}})
	bm, err := FromAssignment(g, []int32{0, 1, 1}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	alt := []int32{0, 0, 1} // vertex 1 moved to block 0 in the alt view
	sc := NewScratch()
	vc := bm.CountVertex(0, alt, sc)
	if vc.OutTo(0) != 1 || vc.OutTo(1) != 1 {
		t.Fatalf("counts under alt view: to0=%d to1=%d", vc.OutTo(0), vc.OutTo(1))
	}
}

func TestCountVertex(t *testing.T) {
	g, assign := fixture(t)
	bm, _ := FromAssignment(g, assign, 2, 1)
	sc := NewScratch()
	vc := bm.CountVertex(0, bm.Assignment, sc)
	// Vertex 0: out-edges to 1 (block 0) and self-loop; in-edges from 2, 1 (block 0).
	if vc.SelfLoops != 1 {
		t.Fatalf("self-loops = %d", vc.SelfLoops)
	}
	if vc.KOut != 2 || vc.KIn != 3 {
		t.Fatalf("KOut=%d KIn=%d", vc.KOut, vc.KIn)
	}
	if vc.OutTo(0) != 1 || vc.InFrom(0) != 2 {
		t.Fatalf("OutTo(0)=%d InFrom(0)=%d", vc.OutTo(0), vc.InFrom(0))
	}
}

func TestScratchReuseAcrossSizes(t *testing.T) {
	// A scratch used at a large block count then a small one (and back)
	// must stay correct: the blockVec generation stamps must isolate
	// calls.
	rr := rng.New(9)
	gBig, aBig := randomGraph(rr, 50, 200, 40)
	big, err := FromAssignment(gBig, aBig, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	gSmall, aSmall := randomGraph(rr, 10, 30, 3)
	small, err := FromAssignment(gSmall, aSmall, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	for i := 0; i < 20; i++ {
		vB := rr.Intn(50)
		mdB := big.EvalMove(vB, int32(rr.Intn(40)), big.Assignment, sc)
		checkDeltaFresh(t, big, mdB)
		vS := rr.Intn(10)
		mdS := small.EvalMove(vS, int32(rr.Intn(3)), small.Assignment, sc)
		checkDeltaFresh(t, small, mdS)
	}
}

// checkDeltaFresh verifies one MoveDelta against full recomputation.
func checkDeltaFresh(t *testing.T, bm *Blockmodel, md MoveDelta) {
	t.Helper()
	moved := append([]int32(nil), bm.Assignment...)
	moved[md.V] = md.To
	after, err := FromAssignment(bm.G, moved, bm.C, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := likelihoodEntropy(after) - likelihoodEntropy(bm)
	if math.Abs(md.DeltaS-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("delta %v != recomputed %v", md.DeltaS, want)
	}
}

func TestBlockVecStampWrap(t *testing.T) {
	var b blockVec
	b.reset(4)
	b.add(2, 7)
	b.gen = math.MaxUint32 // force wrap on next reset
	b.reset(4)
	if b.get(2) != 0 {
		t.Fatal("stale value visible after generation wrap")
	}
	b.add(1, 3)
	if b.get(1) != 3 {
		t.Fatal("add after wrap lost")
	}
	count := 0
	b.iterate(func(k int32, v int64) { count++ })
	if count != 1 {
		t.Fatalf("iterate after wrap visited %d entries", count)
	}
}

func TestBlockVecAgainstMapReference(t *testing.T) {
	// Property: a blockVec behaves exactly like a map across interleaved
	// resets, adds and reads.
	if err := quick.Check(func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		var b blockVec
		c := rr.Intn(30) + 2
		for round := 0; round < 5; round++ {
			b.reset(c)
			ref := map[int32]int64{}
			for op := 0; op < 40; op++ {
				k := int32(rr.Intn(c))
				d := int64(rr.Intn(7)) - 3
				b.add(k, d)
				ref[k] += d
			}
			for k, v := range ref {
				if b.get(k) != v {
					return false
				}
			}
			seen := map[int32]int64{}
			b.iterate(func(k int32, v int64) { seen[k] = v })
			for k, v := range ref {
				if v != 0 && seen[k] != v {
					return false
				}
			}
			for k := range seen {
				if ref[k] == 0 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestXlogxTableExact pins the small-count table to the expression it
// replaces: every entry, and xlogx on both sides of the table's end,
// must bit-equal float64(x)·ln(float64(x)), with 0 for x ≤ 0.
func TestXlogxTableExact(t *testing.T) {
	want := func(x int64) float64 {
		if x <= 0 {
			return 0
		}
		f := float64(x)
		return f * math.Log(f)
	}
	for x := range xlogxTable {
		if got := xlogxTable[x]; math.Float64bits(got) != math.Float64bits(want(int64(x))) {
			t.Fatalf("xlogxTable[%d] = %v, want %v", x, got, want(int64(x)))
		}
	}
	n := int64(len(xlogxTable))
	for _, x := range []int64{math.MinInt64, -n, -1, 0, 1, 2, n - 1, n, n + 1, 1 << 40} {
		if got := xlogx(x); math.Float64bits(got) != math.Float64bits(want(x)) {
			t.Errorf("xlogx(%d) = %v, want %v", x, got, want(x))
		}
	}
}
