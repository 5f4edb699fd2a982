package check

import (
	"math"
	"strings"
	"testing"

	"repro/internal/blockmodel"
	"repro/internal/graph"
	"repro/internal/rng"
)

// randomModel builds a random multigraph (self-loops and parallel edges
// included) with a random assignment into c blocks.
func randomModel(t *testing.T, seed uint64, n, c, edges int) *blockmodel.Blockmodel {
	t.Helper()
	rn := rng.New(seed)
	es := make([]graph.Edge, edges)
	for i := range es {
		es[i] = graph.Edge{Src: int32(rn.Intn(n)), Dst: int32(rn.Intn(n))}
	}
	g := graph.MustNew(n, es)
	b := make([]int32, n)
	for v := range b {
		b[v] = int32(rn.Intn(c))
	}
	bm, err := blockmodel.FromAssignment(g, b, c, 1)
	if err != nil {
		t.Fatalf("FromAssignment: %v", err)
	}
	return bm
}

func TestOracleMatchesBlockmodelState(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		bm := randomModel(t, seed, 20, 5, 60)
		o := MustOracle(bm.G, bm.Assignment, bm.C)
		for r := 0; r < bm.C; r++ {
			for s := 0; s < bm.C; s++ {
				if got, want := o.At(r, s), bm.M.Get(r, s); got != want {
					t.Fatalf("seed %d: oracle M[%d][%d]=%d, blockmodel %d", seed, r, s, got, want)
				}
			}
			if o.DegOut(r) != bm.DOut[r] || o.DegIn(r) != bm.DIn[r] || o.Size(r) != bm.Sizes[r] {
				t.Fatalf("seed %d: oracle degrees/sizes diverge at block %d", seed, r)
			}
		}
		if got, want := o.LogLikelihood(), bm.LogLikelihood(); !withinTol(got, want) {
			t.Fatalf("seed %d: oracle L=%g, blockmodel L=%g", seed, got, want)
		}
		if got, want := o.MDL(), bm.MDL(); !withinTol(got, want) {
			t.Fatalf("seed %d: oracle MDL=%g, blockmodel MDL=%g", seed, got, want)
		}
	}
}

// TestMoveDeltaAndHastingsMatchIncremental drives random move sequences
// and requires the incremental ΔS and Hastings correction to match the
// oracle's apply-and-recompute values at every step — the core
// acceptance property of the oracle layer.
func TestMoveDeltaAndHastingsMatchIncremental(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		bm := randomModel(t, seed, 16, 4, 48)
		rn := rng.New(seed * 977)
		sc := blockmodel.NewScratch()
		for step := 0; step < 200; step++ {
			v := rn.Intn(bm.G.NumVertices())
			s := int32(rn.Intn(bm.C))
			md := bm.EvalMove(v, s, bm.Assignment, sc)
			if err := CheckMoveDelta(bm, bm.Assignment, v, s, md.DeltaS); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			h := bm.HastingsCorrection(&md)
			if err := CheckHastings(bm, bm.Assignment, v, s, h); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if rn.Float64() < 0.5 {
				bm.ApplyMove(md)
			}
		}
		if err := Invariants(bm); err != nil {
			t.Fatalf("seed %d: invariants after move sequence: %v", seed, err)
		}
	}
}

func TestMergeDeltaMatchesIncremental(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		bm := randomModel(t, seed, 18, 6, 54)
		rn := rng.New(seed * 1231)
		sc := blockmodel.NewScratch()
		for step := 0; step < 40; step++ {
			r := int32(rn.Intn(bm.C))
			s := int32(rn.Intn(bm.C))
			d := bm.EvalMerge(r, s, sc)
			if err := CheckMergeDelta(bm, r, s, d); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		// Apply one merge the way the merge phase does — relabel and
		// rebuild — and revalidate.
		membership := append([]int32(nil), bm.Assignment...)
		for v, b := range membership {
			if b == 0 {
				membership[v] = 1
			}
		}
		bm.RebuildFrom(membership)
		if err := Invariants(bm); err != nil {
			t.Fatalf("seed %d: invariants after merge: %v", seed, err)
		}
	}
}

func TestMoveDeltaMatchesFullMDLDifference(t *testing.T) {
	// ΔS from EvalMove is the likelihood part only; when the move does
	// not change the non-empty block count it must equal the full MDL
	// difference of the two states.
	bm := randomModel(t, 7, 12, 3, 40)
	sc := blockmodel.NewScratch()
	before := bm.MDL()
	for v := 0; v < bm.G.NumVertices(); v++ {
		s := int32((int(bm.Assignment[v]) + 1) % bm.C)
		if bm.Sizes[bm.Assignment[v]] == 1 {
			continue // emptying a block changes the model term too
		}
		o := MustOracle(bm.G, bm.Assignment, bm.C)
		if o.NonEmptyBlocks() != bm.NumNonEmptyBlocks() {
			t.Fatalf("oracle non-empty count %d, blockmodel %d", o.NonEmptyBlocks(), bm.NumNonEmptyBlocks())
		}
		md := bm.EvalMove(v, s, bm.Assignment, sc)
		bm.ApplyMove(md)
		after := bm.MDL()
		if bm.NumNonEmptyBlocks() == 3 { // model term unchanged
			if diff := after - before; !withinTol(md.DeltaS, diff) {
				t.Fatalf("v=%d: ΔS=%g but MDL moved by %g", v, md.DeltaS, diff)
			}
		}
		before = after
	}
}

func TestCheckersRejectDivergentValues(t *testing.T) {
	bm := randomModel(t, 11, 14, 4, 40)
	v, s := 0, (bm.Assignment[0]+1)%int32(bm.C)
	sc := blockmodel.NewScratch()
	md := bm.EvalMove(v, s, bm.Assignment, sc)
	if err := CheckMoveDelta(bm, bm.Assignment, v, s, md.DeltaS+1e-3); err == nil {
		t.Fatal("CheckMoveDelta accepted a ΔS off by 1e-3")
	} else if !strings.Contains(err.Error(), "apply-and-recompute") {
		t.Fatalf("unexpected divergence message: %v", err)
	}
	h := bm.HastingsCorrection(&md)
	if err := CheckHastings(bm, bm.Assignment, v, s, h*(1+1e-6)); err == nil {
		t.Fatal("CheckHastings accepted a corrupted correction")
	}
	d := bm.EvalMerge(0, 1, sc)
	if err := CheckMergeDelta(bm, 0, 1, d+1e-3); err == nil {
		t.Fatal("CheckMergeDelta accepted a ΔS off by 1e-3")
	}
}

func TestMustHelpersPanicWithFailure(t *testing.T) {
	bm := randomModel(t, 13, 10, 3, 30)
	bm.M.Add(0, 1, 1) // corrupt one block count
	defer func() {
		f := AsFailure(recover())
		if f == nil {
			t.Fatal("MustInvariants did not panic with *Failure")
		}
		if f.Stage != "unit-test" {
			t.Fatalf("Failure stage %q, want unit-test", f.Stage)
		}
		if !strings.Contains(f.Error(), "M[0][1]") {
			t.Fatalf("failure does not name the divergent entry: %v", f)
		}
	}()
	MustInvariants(bm, "unit-test")
}

func TestWithinTolBounds(t *testing.T) {
	if !withinTol(1.0, 1.0+1e-10) {
		t.Fatal("1e-10 absolute difference should be within tolerance")
	}
	if withinTol(1.0, 1.0+1e-8) {
		t.Fatal("1e-8 absolute difference at unit scale should diverge")
	}
	if !withinTol(1e6, 1e6*(1+1e-10)) {
		t.Fatal("1e-10 relative difference should be within tolerance")
	}
	if withinTol(math.NaN(), 0) {
		t.Fatal("NaN must never pass verification")
	}
}
