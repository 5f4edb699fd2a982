package blockmodel

import (
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// benchModel builds a structured model at the requested block count.
func benchModel(b *testing.B, v, c int) (*Blockmodel, *rng.RNG) {
	b.Helper()
	g, truth, err := gen.Generate(gen.Spec{
		Name: "bench", Vertices: v, Communities: c, MinDegree: 5, MaxDegree: 50,
		Exponent: 2.5, Ratio: 4, SizeSkew: 0.3, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	bm, err := FromAssignment(g, truth, c, 1)
	if err != nil {
		b.Fatal(err)
	}
	return bm, rng.New(2)
}

func BenchmarkEvalMove(b *testing.B) {
	for _, c := range []int{8, 64, 512} {
		b.Run("C="+strconv.Itoa(c), func(b *testing.B) {
			bm, r := benchModel(b, 2000, c)
			sc := NewScratch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := r.Intn(2000)
				s := int32(r.Intn(c))
				_ = bm.EvalMove(v, s, bm.Assignment, sc)
			}
		})
	}
}

func BenchmarkEvalMoveWithHastings(b *testing.B) {
	bm, r := benchModel(b, 2000, 32)
	sc := NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := r.Intn(2000)
		s := int32(r.Intn(32))
		md := bm.EvalMove(v, s, bm.Assignment, sc)
		_ = bm.HastingsCorrection(&md)
	}
}

func BenchmarkApplyMove(b *testing.B) {
	bm, r := benchModel(b, 2000, 32)
	sc := NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := r.Intn(2000)
		s := int32(r.Intn(32))
		md := bm.EvalMove(v, s, bm.Assignment, sc)
		if md.EmptiesSrc {
			continue
		}
		bm.ApplyMove(md)
	}
}

func BenchmarkProposeVertexMove(b *testing.B) {
	bm, r := benchModel(b, 2000, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bm.ProposeVertexMove(r.Intn(2000), bm.Assignment, r)
	}
}

// BenchmarkRebuild measures the sweep-boundary update: it alternates
// between two memberships that differ in about 10% of vertices, the
// share of proposals a typical A-SBP sweep accepts.
func BenchmarkRebuild(b *testing.B) {
	for _, mode := range []struct {
		name string
		c    int
	}{{"dense", 32}, {"sparse", 2 * sparse.DenseThreshold}} {
		b.Run(mode.name, func(b *testing.B) {
			bm, r := benchModel(b, 5000, mode.c)
			a := append([]int32(nil), bm.Assignment...)
			moved := append([]int32(nil), a...)
			for v := range moved {
				if r.Intn(10) == 0 {
					moved[v] = int32(r.Intn(mode.c))
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					bm.RebuildFrom(moved)
				} else {
					bm.RebuildFrom(a)
				}
			}
		})
	}
}

func BenchmarkMDL(b *testing.B) {
	bm, _ := benchModel(b, 5000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bm.MDL()
	}
}

func BenchmarkEvalMerge(b *testing.B) {
	bm, r := benchModel(b, 2000, 64)
	sc := NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := int32(r.Intn(64))
		y := int32(r.Intn(64))
		if x == y {
			continue
		}
		_ = bm.EvalMerge(x, y, sc)
	}
}

func BenchmarkIdentityBuild(b *testing.B) {
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	gBig, _, err := gen.Generate(gen.Spec{
		Name: "big", Vertices: 10000, Communities: 10, MinDegree: 2, MaxDegree: 20,
		Exponent: 2.5, Ratio: 3, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = g
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Identity(gBig, 0)
	}
}
