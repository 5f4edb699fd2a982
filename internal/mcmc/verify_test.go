package mcmc

// Verified-engine tests: every engine runs with Config.Verify on random
// small graphs, so each evaluated proposal's incremental ΔS and Hastings
// correction is cross-checked against the dense oracle and invariants
// are revalidated after every sweep. A divergence panics with a
// *check.Failure, failing the test with the divergent quantity named.

import (
	"fmt"
	"testing"

	"repro/internal/blockmodel"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// verifyGraphSpecs are the random small graphs every engine is verified
// on (three distinct shapes: balanced, sparse-skewed, dense-ish).
var verifyGraphSpecs = []gen.Spec{
	{Name: "v1", Vertices: 24, Communities: 3, MinDegree: 2, MaxDegree: 6, Exponent: 2.5, Ratio: 4, Seed: 11},
	{Name: "v2", Vertices: 32, Communities: 4, MinDegree: 1, MaxDegree: 10, Exponent: 2.1, Ratio: 2, SizeSkew: 1, Seed: 22},
	{Name: "v3", Vertices: 20, Communities: 2, MinDegree: 3, MaxDegree: 8, Exponent: 3, Ratio: 6, Seed: 33},
}

// verifiedModel builds a blockmodel for spec with a randomised (not
// ground-truth) assignment, so the verified phase has real work to do.
func verifiedModel(t *testing.T, spec gen.Spec, c int) *blockmodel.Blockmodel {
	t.Helper()
	g, _, err := gen.Generate(spec)
	if err != nil {
		t.Fatalf("generate %s: %v", spec.Name, err)
	}
	rn := rng.New(spec.Seed ^ 0x9e3779b9)
	b := make([]int32, g.NumVertices())
	for v := range b {
		b[v] = int32(rn.Intn(c))
	}
	bm, err := blockmodel.FromAssignment(g, b, c, 1)
	if err != nil {
		t.Fatalf("FromAssignment: %v", err)
	}
	return bm
}

func TestVerifiedEnginesOnRandomGraphs(t *testing.T) {
	algorithms := []Algorithm{SerialMH, AsyncGibbs, Hybrid, BatchedGibbs}
	for _, spec := range verifyGraphSpecs {
		for _, alg := range algorithms {
			t.Run(fmt.Sprintf("%s/%s", spec.Name, alg), func(t *testing.T) {
				bm := verifiedModel(t, spec, 5)
				cfg := DefaultConfig()
				cfg.MaxSweeps = 3
				cfg.Workers = 2
				cfg.Batches = 2
				cfg.Verify = true
				st := Run(bm, alg, cfg, rng.New(spec.Seed))
				if st.Sweeps == 0 {
					t.Fatal("verified run executed no sweeps")
				}
				if st.Proposals == 0 {
					t.Fatal("verified run evaluated no proposals")
				}
			})
		}
	}
}

// TestVerifiedEnginesSparseStorage runs one verified sweep per engine on
// a model with more blocks than sparse.DenseThreshold, so the oracle
// checks the kernel on the sparse block matrix too.
func TestVerifiedEnginesSparseStorage(t *testing.T) {
	spec := gen.Spec{Name: "v4", Vertices: 300, Communities: 4, MinDegree: 1, MaxDegree: 6, Exponent: 2.5, Ratio: 4, Seed: 44}
	for _, alg := range []Algorithm{SerialMH, AsyncGibbs} {
		t.Run(alg.String(), func(t *testing.T) {
			bm := verifiedModel(t, spec, sparse.DenseThreshold+14)
			if bm.M.IsDense() {
				t.Fatal("fixture: block matrix is dense")
			}
			cfg := DefaultConfig()
			cfg.MaxSweeps = 1
			cfg.Workers = 2
			cfg.Verify = true
			if st := Run(bm, alg, cfg, rng.New(spec.Seed)); st.Proposals == 0 {
				t.Fatal("verified run evaluated no proposals")
			}
		})
	}
}

// TestVerifyMatchesUnverifiedTrajectory checks that verification is
// purely observational: with the same seed, a verified run must follow
// bit-for-bit the same chain as an unverified one.
func TestVerifyMatchesUnverifiedTrajectory(t *testing.T) {
	for _, alg := range []Algorithm{SerialMH, AsyncGibbs, Hybrid, BatchedGibbs} {
		plain := verifiedModel(t, verifyGraphSpecs[0], 4)
		checked := plain.Clone()
		cfg := DefaultConfig()
		cfg.MaxSweeps = 2
		cfg.Workers = 2
		cfg.Batches = 2
		stPlain := Run(plain, alg, cfg, rng.New(7))
		cfg.Verify = true
		stChecked := Run(checked, alg, cfg, rng.New(7))
		if stPlain.FinalS != stChecked.FinalS || stPlain.Accepts != stChecked.Accepts {
			t.Fatalf("%s: verification changed the chain: MDL %g vs %g, accepts %d vs %d",
				alg, stPlain.FinalS, stChecked.FinalS, stPlain.Accepts, stChecked.Accepts)
		}
		for v := range plain.Assignment {
			if plain.Assignment[v] != checked.Assignment[v] {
				t.Fatalf("%s: assignments diverge at vertex %d", alg, v)
			}
		}
	}
}
