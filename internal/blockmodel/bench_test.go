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
	return benchModelDeg(b, v, c, 50)
}

// benchModelDeg is benchModel with a chosen maximum vertex degree.
func benchModelDeg(b *testing.B, v, c, maxDeg int) (*Blockmodel, *rng.RNG) {
	b.Helper()
	g, truth, err := gen.Generate(gen.Spec{
		Name: "bench", Vertices: v, Communities: c, MinDegree: 5, MaxDegree: maxDeg,
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

// kernelCase is one block-matrix regime of the proposal kernel.
type kernelCase struct {
	name         string
	v, c, maxDeg int
}

// sparseKernelCases are the two sparse-storage regimes: light rows of a
// few dozen entries (2000 vertices in 512 blocks), and heavy rows that
// hold most of the 300 blocks (20000 vertices of degree up to 200).
var sparseKernelCases = []kernelCase{
	{"C=512", 2000, 512, 50},
	{"heavy/C=300", 20000, 300, 200},
}

// kernelCases prefixes the given dense block counts to sparseKernelCases.
// The kernel benchmarks build each case's model before b.Run, which
// calls its function again for every calibration round: regenerating
// the 20000-vertex graph each time dominated their run time.
func kernelCases(dense ...int) []kernelCase {
	var cs []kernelCase
	for _, c := range dense {
		cs = append(cs, kernelCase{"C=" + strconv.Itoa(c), 2000, c, 50})
	}
	return append(cs, sparseKernelCases...)
}

func BenchmarkEvalMove(b *testing.B) {
	for _, kc := range kernelCases(8, 64) {
		bm, r := benchModelDeg(b, kc.v, kc.c, kc.maxDeg)
		b.Run(kc.name, func(b *testing.B) {
			sc := NewScratch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := r.Intn(kc.v)
				s := int32(r.Intn(kc.c))
				_ = bm.EvalMove(v, s, bm.Assignment, sc)
			}
		})
	}
}

func BenchmarkEvalMoveWithHastings(b *testing.B) {
	for _, kc := range kernelCases(32) {
		bm, r := benchModelDeg(b, kc.v, kc.c, kc.maxDeg)
		b.Run(kc.name, func(b *testing.B) {
			sc := NewScratch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := r.Intn(kc.v)
				s := int32(r.Intn(kc.c))
				md := bm.EvalMove(v, s, bm.Assignment, sc)
				_ = bm.HastingsCorrection(&md)
			}
		})
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
	for _, kc := range kernelCases(64) {
		bm, r := benchModelDeg(b, kc.v, kc.c, kc.maxDeg)
		b.Run(kc.name, func(b *testing.B) {
			sc := NewScratch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := int32(r.Intn(kc.c))
				y := int32(r.Intn(kc.c))
				if x == y {
					continue
				}
				_ = bm.EvalMerge(x, y, sc)
			}
		})
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
