package sbp

// Full verified runs: the complete SBP search (merge phases, MCMC
// phases, golden-section bracket, compactions) executes with
// Options.Verify for all four engines on three random small graphs.
// Every incremental ΔMDL and Hastings correction along the way is
// cross-checked against the dense oracle in internal/check, and
// blockmodel invariants are revalidated at every phase boundary; any
// divergence panics and fails the test.

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/mcmc"
	"repro/internal/sparse"
)

var verifySpecs = []gen.Spec{
	{Name: "g1", Vertices: 28, Communities: 4, MinDegree: 2, MaxDegree: 6, Exponent: 2.5, Ratio: 5, Seed: 101},
	{Name: "g2", Vertices: 36, Communities: 3, MinDegree: 1, MaxDegree: 9, Exponent: 2.2, Ratio: 3, SizeSkew: 1, Seed: 202},
	{Name: "g3", Vertices: 24, Communities: 2, MinDegree: 2, MaxDegree: 7, Exponent: 3, Ratio: 8, Seed: 303},
}

func TestVerifiedFullRuns(t *testing.T) {
	algorithms := []mcmc.Algorithm{mcmc.SerialMH, mcmc.AsyncGibbs, mcmc.Hybrid, mcmc.BatchedGibbs}
	for _, spec := range verifySpecs {
		g, _, err := gen.Generate(spec)
		if err != nil {
			t.Fatalf("generate %s: %v", spec.Name, err)
		}
		for _, alg := range algorithms {
			t.Run(fmt.Sprintf("%s/%s", spec.Name, alg), func(t *testing.T) {
				opts := DefaultOptions(alg)
				opts.Verify = true
				opts.Seed = spec.Seed
				opts.MCMC.Workers = 2
				opts.Merge.Workers = 2
				opts.MCMC.MaxSweeps = 5
				res := Run(g, opts)
				if res.Best == nil {
					t.Fatal("verified run returned no blockmodel")
				}
				if res.NumCommunities < 1 || res.NumCommunities > g.NumVertices() {
					t.Fatalf("implausible community count %d", res.NumCommunities)
				}
				if res.MDL <= 0 {
					t.Fatalf("implausible MDL %g", res.MDL)
				}
			})
		}
	}
}

// TestVerifiedRunBothStorageModes runs a verified search on a graph
// with more vertices than sparse.DenseThreshold: the first merge phase
// evaluates merges on the sparse block matrix, later phases on the
// dense one.
func TestVerifiedRunBothStorageModes(t *testing.T) {
	g, _, err := gen.Generate(gen.Spec{Name: "g4", Vertices: sparse.DenseThreshold + 14, Communities: 4,
		MinDegree: 1, MaxDegree: 6, Exponent: 2.5, Ratio: 5, Seed: 404})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(mcmc.AsyncGibbs)
	opts.Verify = true
	opts.Seed = 404
	opts.MCMC.Workers = 2
	opts.Merge.Workers = 2
	opts.MCMC.MaxSweeps = 2
	opts.Merge.Candidates = 3
	if g.NumVertices() <= sparse.DenseThreshold {
		t.Fatalf("fixture: %d vertices start in dense storage", g.NumVertices())
	}
	res := Run(g, opts)
	if res.Best == nil || !res.Best.M.IsDense() {
		t.Fatalf("verified run did not reach dense storage (%d communities)", res.NumCommunities)
	}
}
