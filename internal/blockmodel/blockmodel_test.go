package blockmodel

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// fixture returns a small directed graph with two obvious communities
// {0,1,2} and {3,4,5}, plus a self-loop and a bridge edge.
func fixture(t *testing.T) (*graph.Graph, []int32) {
	t.Helper()
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 1, Dst: 0},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 5}, {Src: 5, Dst: 3}, {Src: 4, Dst: 3},
		{Src: 2, Dst: 3}, // bridge
		{Src: 0, Dst: 0}, // self-loop
	}
	g, err := graph.New(6, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, []int32{0, 0, 0, 1, 1, 1}
}

// randomGraph generates a random multigraph and assignment for property
// tests.
func randomGraph(r *rng.RNG, n, e, c int) (*graph.Graph, []int32) {
	edges := make([]graph.Edge, e)
	for i := range edges {
		edges[i] = graph.Edge{Src: int32(r.Intn(n)), Dst: int32(r.Intn(n))}
	}
	assignment := make([]int32, n)
	for v := range assignment {
		assignment[v] = int32(r.Intn(c))
	}
	return graph.MustNew(n, edges), assignment
}

func TestFromAssignmentCounts(t *testing.T) {
	g, assign := fixture(t)
	bm, err := FromAssignment(g, assign, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Within block 0: (0,1),(1,2),(2,0),(1,0),(0,0) = 5 edges.
	if got := bm.M.Get(0, 0); got != 5 {
		t.Fatalf("M[0][0] = %d, want 5", got)
	}
	if got := bm.M.Get(0, 1); got != 1 {
		t.Fatalf("M[0][1] = %d, want 1 (bridge)", got)
	}
	if got := bm.M.Get(1, 0); got != 0 {
		t.Fatalf("M[1][0] = %d, want 0", got)
	}
	if got := bm.M.Get(1, 1); got != 4 {
		t.Fatalf("M[1][1] = %d, want 4", got)
	}
	if bm.DOut[0] != 6 || bm.DIn[0] != 5 {
		t.Fatalf("block 0 degrees: out=%d in=%d", bm.DOut[0], bm.DIn[0])
	}
	if bm.Sizes[0] != 3 || bm.Sizes[1] != 3 {
		t.Fatalf("sizes: %v", bm.Sizes)
	}
	if err := bm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromAssignmentRejectsBad(t *testing.T) {
	g, assign := fixture(t)
	if _, err := FromAssignment(g, assign[:3], 2, 1); err == nil {
		t.Fatal("short assignment accepted")
	}
	bad := append([]int32(nil), assign...)
	bad[0] = 7
	if _, err := FromAssignment(g, bad, 2, 1); err == nil {
		t.Fatal("out-of-range block accepted")
	}
}

func TestIdentity(t *testing.T) {
	g, _ := fixture(t)
	bm := Identity(g, 1)
	if bm.C != g.NumVertices() {
		t.Fatalf("identity C = %d", bm.C)
	}
	for v, b := range bm.Assignment {
		if int(b) != v {
			t.Fatalf("vertex %d in block %d", v, b)
		}
	}
	if err := bm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelRebuildMatchesSerial(t *testing.T) {
	r := rng.New(5)
	g, assign := randomGraph(r, 200, 1000, 17)
	serial, err := FromAssignment(g, assign, 17, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := FromAssignment(g, assign, 17, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !serial.M.Equal(par.M) {
		t.Fatal("parallel rebuild differs from serial")
	}
	for i := range serial.DOut {
		if serial.DOut[i] != par.DOut[i] || serial.DIn[i] != par.DIn[i] || serial.Sizes[i] != par.Sizes[i] {
			t.Fatalf("degree/size mismatch at block %d", i)
		}
	}
}

func TestRebuildFrom(t *testing.T) {
	g, assign := fixture(t)
	bm, err := FromAssignment(g, assign, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	next := []int32{0, 0, 1, 1, 1, 0} // scramble
	bm.RebuildFrom(next)
	if err := bm.Validate(); err != nil {
		t.Fatal(err)
	}
	if bm.Sizes[0] != 3 || bm.Sizes[1] != 3 {
		t.Fatalf("sizes after rebuild: %v", bm.Sizes)
	}
}

func TestCloneIndependent(t *testing.T) {
	g, assign := fixture(t)
	bm, _ := FromAssignment(g, assign, 2, 1)
	cp := bm.Clone()
	cp.Assignment[0] = 1
	cp.M.Add(0, 0, 5)
	cp.DOut[0] += 3
	if bm.Assignment[0] != 0 || bm.M.Get(0, 0) != 5 || bm.DOut[0] != 6 {
		t.Fatal("clone aliases original")
	}
	if err := bm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompact(t *testing.T) {
	g, _ := fixture(t)
	// Blocks 0 and 2 used; block 1 empty.
	bm, err := FromAssignment(g, []int32{0, 0, 0, 2, 2, 2}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	remap := bm.Compact(1)
	if bm.C != 2 {
		t.Fatalf("C after compact = %d", bm.C)
	}
	if remap[0] != 0 || remap[1] != -1 || remap[2] != 1 {
		t.Fatalf("remap = %v", remap)
	}
	if err := bm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactNoopWhenFull(t *testing.T) {
	g, assign := fixture(t)
	bm, _ := FromAssignment(g, assign, 2, 1)
	before := bm.M.Clone()
	bm.Compact(1)
	if bm.C != 2 || !bm.M.Equal(before) {
		t.Fatal("compact changed an already-compact model")
	}
}

func TestNumNonEmptyBlocks(t *testing.T) {
	g, _ := fixture(t)
	bm, _ := FromAssignment(g, []int32{0, 0, 0, 3, 3, 3}, 4, 1)
	if got := bm.NumNonEmptyBlocks(); got != 2 {
		t.Fatalf("non-empty = %d, want 2", got)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g, assign := fixture(t)
	bm, _ := FromAssignment(g, assign, 2, 1)
	bm.M.Add(0, 1, 1) // corrupt the matrix
	if bm.Validate() == nil {
		t.Fatal("corrupted matrix passed validation")
	}

	bm, _ = FromAssignment(g, assign, 2, 1)
	bm.DOut[0]++ // corrupt a degree
	if bm.Validate() == nil {
		t.Fatal("corrupted degree passed validation")
	}

	bm, _ = FromAssignment(g, assign, 2, 1)
	bm.Sizes[1]-- // corrupt a size
	if bm.Validate() == nil {
		t.Fatal("corrupted size passed validation")
	}
}

// rebuildGraph returns a random multigraph on n vertices with explicit
// self-loops, duplicated edges and edges among the vertices the
// "tenth" case of TestRebuildFromMatchesFreshBuild moves (multiples of
// 10), so every edge class of the incremental update is exercised.
func rebuildGraph(n int) *graph.Graph {
	r := rng.New(17)
	edges := []graph.Edge{
		{Src: 0, Dst: 10}, {Src: 0, Dst: 10}, {Src: 10, Dst: 0}, {Src: 20, Dst: 10},
		{Src: 0, Dst: 0}, {Src: 10, Dst: 10}, {Src: 10, Dst: 10}, {Src: 3, Dst: 3},
	}
	for i := 0; i < 6*n; i++ {
		edges = append(edges, graph.Edge{Src: int32(r.Intn(n)), Dst: int32(r.Intn(n))})
	}
	return graph.MustNew(n, edges)
}

// requireSameCounts fails unless got carries exactly the counts, sizes
// and description length of want.
func requireSameCounts(t *testing.T, got, want *Blockmodel) {
	t.Helper()
	if !got.M.Equal(want.M) {
		t.Fatal("block matrix differs from a fresh build")
	}
	for r := 0; r < want.C; r++ {
		if got.DOut[r] != want.DOut[r] || got.DIn[r] != want.DIn[r] ||
			got.DTot[r] != want.DTot[r] || got.Sizes[r] != want.Sizes[r] {
			t.Fatalf("block %d: degrees/size (%d,%d,%d,%d), fresh build (%d,%d,%d,%d)", r,
				got.DOut[r], got.DIn[r], got.DTot[r], got.Sizes[r],
				want.DOut[r], want.DIn[r], want.DTot[r], want.Sizes[r])
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if g, w := got.MDL(), want.MDL(); g != w {
		t.Fatalf("MDL %v, fresh build %v", g, w)
	}
}

// TestRebuildFromMatchesFreshBuild checks that the incremental update
// lands on exactly the state FromAssignment builds from the new
// membership, in both storage modes, and that updating back restores
// the original state.
func TestRebuildFromMatchesFreshBuild(t *testing.T) {
	const n = 1000
	g := rebuildGraph(n)
	moves := []struct {
		name string
		move func(base []int32, c int, r *rng.RNG) []int32
	}{
		{"none", func(base []int32, c int, r *rng.RNG) []int32 { return base }},
		{"one", func(base []int32, c int, r *rng.RNG) []int32 {
			base[10] = (base[10] + 1) % int32(c-1)
			return base
		}},
		{"tenth", func(base []int32, c int, r *rng.RNG) []int32 {
			for v := 0; v < n; v += 10 {
				base[v] = int32(r.Intn(c))
			}
			return base
		}},
		{"all", func(base []int32, c int, r *rng.RNG) []int32 {
			// Shifting every vertex up one block empties block 0 and
			// fills the previously empty block c-1.
			for v := range base {
				base[v]++
			}
			return base
		}},
		{"empty-and-fill", func(base []int32, c int, r *rng.RNG) []int32 {
			for v, b := range base {
				if b == 0 {
					base[v] = 1
				}
			}
			base[3] = int32(c - 1)
			return base
		}},
	}
	for _, mode := range []struct {
		name  string
		c     int
		dense bool
	}{{"dense", 16, true}, {"sparse", sparse.DenseThreshold + 44, false}} {
		for _, mv := range moves {
			t.Run(mode.name+"/"+mv.name, func(t *testing.T) {
				r := rng.New(3)
				base := make([]int32, n)
				for v := range base {
					base[v] = int32(r.Intn(mode.c - 1)) // block c-1 starts empty
				}
				bm, err := FromAssignment(g, base, mode.c, 1)
				if err != nil {
					t.Fatal(err)
				}
				if bm.M.IsDense() != mode.dense {
					t.Fatalf("IsDense = %v, want %v", bm.M.IsDense(), mode.dense)
				}
				orig := bm.Clone()
				next := mv.move(append([]int32(nil), base...), mode.c, r)

				bm.RebuildFrom(next)
				requireSameCounts(t, bm, mustFromAssignment(t, g, next, mode.c))
				for v := range next {
					if bm.Assignment[v] != next[v] {
						t.Fatalf("Assignment[%d] = %d, want %d", v, bm.Assignment[v], next[v])
					}
				}

				bm.RebuildFrom(base)
				requireSameCounts(t, bm, orig)
			})
		}
	}
}

// TestRebuildFromZeroAllocs pins the sweep-boundary update to no heap
// traffic in dense mode.
func TestRebuildFromZeroAllocs(t *testing.T) {
	const n = 600
	g := rebuildGraph(n)
	a := moduloAssign(n, 16)
	b := append([]int32(nil), a...)
	for v := 0; v < n; v += 10 {
		b[v] = (b[v] + 5) % 16
	}
	bm := mustFromAssignment(t, g, a, 16)
	flip := false
	allocs := testing.AllocsPerRun(50, func() {
		if flip {
			bm.RebuildFrom(a)
		} else {
			bm.RebuildFrom(b)
		}
		flip = !flip
	})
	if allocs != 0 {
		t.Fatalf("dense RebuildFrom allocates %.1f times per run, want 0", allocs)
	}
}
