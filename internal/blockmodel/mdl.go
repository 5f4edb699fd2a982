package blockmodel

import "math"

// The DCSBM minimum description length (paper Eq. 2):
//
//	MDL = E·h(C²/E) + V·ln C − L(G|B)
//
// with h(x) = (1+x)·ln(1+x) − x·ln x, and the log-likelihood (Eq. 1)
//
//	L(G|B) = Σ_{rs} M_rs · ln( M_rs / (d_out_r · d_in_s) ).
//
// Natural logarithms are used throughout; MDL values are therefore in
// nats, and all ratios (ΔMDL thresholds, normalized MDL) are base-
// independent.

// hFunc is h(x) = (1+x)ln(1+x) − x ln x, with h(0) = 0.
func hFunc(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return (1+x)*math.Log(1+x) - x*math.Log(x)
}

// LogLikelihood returns L(G|B) (Eq. 1). Zero entries and zero-degree
// blocks contribute nothing.
func (bm *Blockmodel) LogLikelihood() float64 {
	var l float64
	for r := 0; r < bm.C; r++ {
		dr := float64(bm.DOut[r])
		if dr == 0 {
			continue
		}
		bm.M.RowNZ(r, func(s int32, count int64) {
			ds := float64(bm.DIn[s])
			m := float64(count)
			l += m * math.Log(m/(dr*ds))
		})
	}
	return l
}

// modelTerm returns E·h(C²/E) + V·ln(C) for the given block count — the
// part of the MDL that penalises model complexity. c counts non-empty
// blocks.
func (bm *Blockmodel) modelTerm(c int) float64 {
	e := float64(bm.G.NumEdges())
	v := float64(bm.G.NumVertices())
	if e == 0 || c <= 0 {
		return 0
	}
	cf := float64(c)
	return e*hFunc(cf*cf/e) + v*math.Log(cf)
}

// MDL returns the full description length of the current state (Eq. 2).
// The block count used in the model term is the number of non-empty
// blocks, so states that empty blocks during MCMC are scored correctly.
func (bm *Blockmodel) MDL() float64 {
	return bm.modelTerm(bm.NumNonEmptyBlocks()) - bm.LogLikelihood()
}

// NullDescriptionLength returns the description length of the structure-
// less null blockmodel in which every vertex belongs to a single
// community — the normaliser for the paper's MDL_norm metric. For C=1:
// L = E·ln(E/(E·E)) = −E·ln E, so MDL_null = E·h(1/E) + E·ln E.
func NullDescriptionLength(v, e int) float64 {
	if e == 0 {
		return 0
	}
	ef := float64(e)
	// modelTerm with C=1: E·h(1/E) + V·ln 1 = E·h(1/E).
	// L = E·ln(1/E) = −E·ln E  ⇒  MDL = E·h(1/E) + E·ln E.
	return ef*hFunc(1/ef) + ef*math.Log(ef)
}

// NormalizedMDL returns MDL / MDL_null, the paper's graph-size-independent
// quality metric (lower is better; values ≥ 1 indicate no structure
// beyond the null model was found).
func (bm *Blockmodel) NormalizedMDL() float64 {
	return NormalizedMDLOf(bm.MDL(), bm.G.NumVertices(), bm.G.NumEdges())
}

// NormalizedMDLOf returns mdl / MDL_null for a graph of v vertices and e
// edges, and 1 for an edgeless graph, whose null model has length 0. It
// lets a caller that already holds a model's MDL normalize it without
// recomputing it.
func NormalizedMDLOf(mdl float64, v, e int) float64 {
	null := NullDescriptionLength(v, e)
	if null == 0 {
		return 1
	}
	return mdl / null
}
