package blockmodel

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestHFunc(t *testing.T) {
	if hFunc(0) != 0 {
		t.Fatal("h(0) != 0")
	}
	if hFunc(-1) != 0 {
		t.Fatal("h(x<0) != 0")
	}
	// h(1) = 2 ln 2 − 0 = 2 ln 2.
	if got, want := hFunc(1), 2*math.Log(2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("h(1) = %v, want %v", got, want)
	}
	// h is increasing on x > 0.
	prev := 0.0
	for x := 0.1; x < 10; x += 0.1 {
		cur := hFunc(x)
		if cur <= prev {
			t.Fatalf("h not increasing at %v", x)
		}
		prev = cur
	}
}

func TestLogLikelihoodHandComputed(t *testing.T) {
	// Two vertices, one edge 0→1, blocks {0},{1}:
	// M = [[0,1],[0,0]], dOut = [1,0], dIn = [0,1].
	// L = 1·ln(1/(1·1)) = 0.
	g := graph.MustNew(2, []graph.Edge{{Src: 0, Dst: 1}})
	bm, err := FromAssignment(g, []int32{0, 1}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l := bm.LogLikelihood(); math.Abs(l) > 1e-12 {
		t.Fatalf("L = %v, want 0", l)
	}
}

func TestLogLikelihoodSingleBlock(t *testing.T) {
	// E edges all in one block: L = E·ln(E/E²) = −E·ln E.
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 0, Dst: 2}})
	bm, err := FromAssignment(g, []int32{0, 0, 0}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := -4 * math.Log(4)
	if l := bm.LogLikelihood(); math.Abs(l-want) > 1e-12 {
		t.Fatalf("L = %v, want %v", l, want)
	}
}

func TestMDLMatchesClosedForm(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 0, Dst: 2}})
	bm, err := FromAssignment(g, []int32{0, 0, 0}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := 4.0
	want := e*hFunc(1/e) + 3*math.Log(1) + e*math.Log(e)
	if got := bm.MDL(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MDL = %v, want %v", got, want)
	}
	// This is exactly the null description length.
	if null := NullDescriptionLength(3, 4); math.Abs(bm.MDL()-null) > 1e-12 {
		t.Fatalf("single-block MDL %v != null MDL %v", bm.MDL(), null)
	}
	if norm := bm.NormalizedMDL(); math.Abs(norm-1) > 1e-12 {
		t.Fatalf("single-block normalized MDL = %v, want 1", norm)
	}
}

func TestMDLUsesNonEmptyBlockCount(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}})
	one, err := FromAssignment(g, []int32{0, 0, 0}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	padded, err := FromAssignment(g, []int32{0, 0, 0}, 5, 1) // 4 empty blocks
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(one.MDL()-padded.MDL()) > 1e-12 {
		t.Fatalf("empty blocks changed MDL: %v vs %v", one.MDL(), padded.MDL())
	}
}

func TestStructuredBeatsNull(t *testing.T) {
	// Two dense communities with a single bridge: the planted partition
	// must have a lower description length than the null model.
	var edges []graph.Edge
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j {
				edges = append(edges, graph.Edge{Src: int32(i), Dst: int32(j)})
				edges = append(edges, graph.Edge{Src: int32(i + 5), Dst: int32(j + 5)})
			}
		}
	}
	edges = append(edges, graph.Edge{Src: 0, Dst: 5})
	g := graph.MustNew(10, edges)
	assign := make([]int32, 10)
	for v := 5; v < 10; v++ {
		assign[v] = 1
	}
	bm, err := FromAssignment(g, assign, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if norm := bm.NormalizedMDL(); norm >= 1 {
		t.Fatalf("planted partition normalized MDL = %v, want < 1", norm)
	}
}

func TestNullDescriptionLengthEdgeCases(t *testing.T) {
	if NullDescriptionLength(10, 0) != 0 {
		t.Fatal("edgeless null MDL != 0")
	}
	if NullDescriptionLength(10, 100) <= 0 {
		t.Fatal("null MDL not positive")
	}
	if got := NormalizedMDLOf(7, 10, 0); got != 1 {
		t.Fatalf("edgeless normalized MDL = %v, want 1", got)
	}
	if got, want := NormalizedMDLOf(7, 10, 100), 7/NullDescriptionLength(10, 100); got != want {
		t.Fatalf("NormalizedMDLOf = %v, want %v", got, want)
	}
}

func TestNormalizedMDLComparableAcrossSizes(t *testing.T) {
	// The same relative structure at two sizes should land in a similar
	// normalized band (the reason the paper introduces MDL_norm).
	r := rng.New(3)
	norm := func(n int) float64 {
		var edges []graph.Edge
		half := n / 2
		for k := 0; k < 8*n; k++ {
			c := r.Intn(2)
			lo, hi := 0, half
			if c == 1 {
				lo, hi = half, n
			}
			edges = append(edges, graph.Edge{
				Src: int32(lo + r.Intn(hi-lo)),
				Dst: int32(lo + r.Intn(hi-lo)),
			})
		}
		g := graph.MustNew(n, edges)
		assign := make([]int32, n)
		for v := half; v < n; v++ {
			assign[v] = 1
		}
		bm, err := FromAssignment(g, assign, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		return bm.NormalizedMDL()
	}
	small, large := norm(40), norm(400)
	if math.Abs(small-large) > 0.15 {
		t.Fatalf("normalized MDL not comparable: %v (V=40) vs %v (V=400)", small, large)
	}
}
