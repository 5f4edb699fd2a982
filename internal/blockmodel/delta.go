package blockmodel

import (
	"math"

	"repro/internal/sparse"
)

// This file implements the incremental ΔMDL computations at the core of
// every SBP variant. They use the decomposition of the log-likelihood
// (Eq. 1) into entry and degree terms, with f(x) = x·ln x:
//
//	L = Σ_rs f(M_rs) − Σ_r f(dOut_r) − Σ_s f(dIn_s)
//
// which holds because row sums of M are DOut and column sums are DIn.
// Moving vertex v from block r to block s (or merging block r into s)
// edits a few entries of rows r, s and columns r, s and changes four
// block degrees, so ΔS = −ΔL is a sum over the edited entries and the
// changed degrees only: O(deg v) for a move, O(nnz of row and column r)
// for a merge.
//
// Every entry the kernel reads lies in row r, row s, column r or column
// s of M. In sparse storage a lookup is a binary search of the line, so
// after folding the edits each of the four lines is scattered once into
// a block-indexed Scratch vector (one ascending walk), and every read of
// ΔS and of the Hastings correction is then one array access. In dense
// storage the kernel indexes the matrix's row, or its column with stride
// C, in place. f is read from a fixed table for small counts.
//
// Proposal evaluation runs once per vertex per sweep and is the hot path
// of the whole system, so all intermediates live in a reusable Scratch
// owned by the calling worker, built on generation-stamped blockVec
// containers with O(1) reset and no hashing.

// Scratch holds the reusable intermediates of move evaluation. Each
// worker goroutine owns one Scratch; a Scratch must not be shared
// concurrently. The MoveDelta returned by EvalMove aliases its Scratch
// and is invalidated by the next EvalMove/EvalMerge call on the same
// Scratch.
type Scratch struct {
	out, in                    blockVec // vertex→block edge tallies
	rowR, rowS, colR, colS     blockVec // folded edit deltas per row/column r, s
	mRowR, mRowS, mColR, mColS line     // current entries of M in row/column r, s
	edits                      []edit
	wFwd, wBwd                 blockVec // Hastings neighbour weights
}

// line reads the entries of one row or column of M during an
// evaluation by block index: from vec, into which load scattered the
// line, in sparse storage, and from the matrix's own array in dense
// storage.
type line struct {
	vec    blockVec // sparse storage: the line's entries
	dense  []int64  // dense storage: entry t is dense[t*stride]
	stride int
}

// load points l at row (col false) or column i of m. The reset runs in
// dense storage too so that the vector follows the shrink policy of
// blockVec.
func (l *line) load(m *sparse.Matrix, i int32, col bool) {
	l.vec.reset(m.NumBlocks())
	idx, counts, stride := m.Line(int(i), col)
	if stride > 0 {
		l.dense, l.stride = counts, stride
		return
	}
	l.dense = nil
	l.vec.scatter(idx, counts)
}

// at returns entry t of the line: M[i][t] for row i, M[t][i] for
// column i.
func (l *line) at(t int32) int64 {
	if l.dense != nil {
		return l.dense[int(t)*l.stride]
	}
	return l.vec.get(t)
}

// addDeltas returns h + Σ f(m+δ) − f(m) over the keys t of the folded
// deltas d with δ = d[t] ≠ 0 and t ∉ {skip1, skip2}, where m is the
// line's current entry at t.
func (l *line) addDeltas(h float64, d *blockVec, skip1, skip2 int32) float64 {
	for _, t := range d.keys {
		dt := d.val[t]
		if dt == 0 || t == skip1 || t == skip2 {
			continue
		}
		x := l.at(t)
		h += xlogx(x+dt) - xlogx(x)
	}
	return h
}

// loadLines points the four line readers at rows and columns r, s. The
// readers stay valid until the model changes.
func (sc *Scratch) loadLines(m *sparse.Matrix, r, s int32) {
	sc.mRowR.load(m, r, false)
	sc.mRowS.load(m, s, false)
	sc.mColR.load(m, r, true)
	sc.mColS.load(m, s, true)
}

// NewScratch returns an empty Scratch ready for use.
func NewScratch() *Scratch { return &Scratch{} }

// VertexCounts tallies how vertex v's incident edges distribute over
// blocks under a given assignment. Self-loops are counted separately
// because a move transfers them from M[r][r] to M[s][s] in one step.
type VertexCounts struct {
	out       *blockVec // block → #out-edges of v into that block (v→u, u≠v)
	in        *blockVec // block → #in-edges of v from that block (u→v, u≠v)
	SelfLoops int64     // #edges v→v
	KOut      int64     // total out-degree of v (self-loops included)
	KIn       int64     // total in-degree of v (self-loops included)

	// Degree-1 vertices skip the blockVec tallies entirely (EvalMove's
	// fast path): out/in stay nil and deg1T names the single neighbour
	// block, with KOut/KIn telling the edge direction.
	deg1T int32
}

// OutTo returns the number of v's out-edges whose head lies in block t
// (excluding self-loops). Exposed for tests.
func (vc VertexCounts) OutTo(t int32) int64 {
	if vc.out == nil {
		if vc.KOut == 1 && t == vc.deg1T {
			return 1
		}
		return 0
	}
	return vc.out.get(t)
}

// InFrom returns the number of v's in-edges whose tail lies in block t
// (excluding self-loops). Exposed for tests.
func (vc VertexCounts) InFrom(t int32) int64 {
	if vc.in == nil {
		if vc.KIn == 1 && t == vc.deg1T {
			return 1
		}
		return 0
	}
	return vc.in.get(t)
}

// CountVertex computes VertexCounts for v under the membership vector b,
// using sc's containers. b may differ from bm.Assignment (the
// asynchronous engines pass their private membership copies).
func (bm *Blockmodel) CountVertex(v int, b []int32, sc *Scratch) VertexCounts {
	sc.out.reset(bm.C)
	sc.in.reset(bm.C)
	vc := VertexCounts{out: &sc.out, in: &sc.in}
	for _, u := range bm.G.OutNeighbors(v) {
		vc.KOut++
		if int(u) == v {
			vc.SelfLoops++
			continue
		}
		sc.out.add(b[u], 1)
	}
	for _, u := range bm.G.InNeighbors(v) {
		vc.KIn++
		if int(u) == v {
			continue // the self-loop was counted from the out side
		}
		sc.in.add(b[u], 1)
	}
	return vc
}

// edit is a single (row, col, delta) adjustment to the block matrix.
type edit struct {
	i, j  int32
	delta int64
}

// moveEdits fills sc.edits with the block-matrix adjustments for moving a
// vertex with counts vc from block r to block s. All edits lie in rows
// r,s and columns r,s.
func (sc *Scratch) moveEdits(vc VertexCounts, r, s int32) {
	sc.edits = sc.edits[:0]
	vc.out.iterate(func(t int32, c int64) {
		sc.edits = append(sc.edits, edit{r, t, -c}, edit{s, t, c})
	})
	vc.in.iterate(func(t int32, c int64) {
		sc.edits = append(sc.edits, edit{t, r, -c}, edit{t, s, c})
	})
	if vc.SelfLoops > 0 {
		sc.edits = append(sc.edits, edit{r, r, -vc.SelfLoops}, edit{s, s, vc.SelfLoops})
	}
}

// mergeEdits fills sc.edits with the block-matrix adjustments for merging
// block r into block s: every edge endpoint in r is relabelled s.
func (bm *Blockmodel) mergeEdits(r, s int32, sc *Scratch) {
	sc.edits = sc.edits[:0]
	bm.M.RowNZ(int(r), func(t int32, c int64) {
		nt := t
		if t == r {
			nt = s
		}
		sc.edits = append(sc.edits, edit{r, t, -c}, edit{s, nt, c})
	})
	bm.M.ColNZ(int(r), func(t int32, c int64) {
		if t == r {
			return // the diagonal was handled from the row side
		}
		sc.edits = append(sc.edits, edit{t, r, -c}, edit{t, s, c})
	})
}

// foldEdits folds sc.edits into per-coordinate deltas. Each edit is
// added to every container that covers its coordinate, so corner
// entries (e.g. M[r][s], covered by rowR and colS) carry the same delta
// in both; entriesDelta counts each coordinate once.
func (sc *Scratch) foldEdits(r, s int32, c int) {
	sc.rowR.reset(c)
	sc.rowS.reset(c)
	sc.colR.reset(c)
	sc.colS.reset(c)
	for _, e := range sc.edits {
		if e.i == r {
			sc.rowR.add(e.j, e.delta)
		}
		if e.i == s {
			sc.rowS.add(e.j, e.delta)
		}
		if e.j == r {
			sc.colR.add(e.i, e.delta)
		}
		if e.j == s {
			sc.colS.add(e.i, e.delta)
		}
	}
}

// xlogxTable holds f(x) for 0 ≤ x < len, computed by the same
// expression xlogx uses above it, so reads are bit-identical to calling
// math.Log. Its 32 KB are fixed: they do not grow with the graph.
var xlogxTable = func() (t [4096]float64) {
	for x := 1; x < len(t); x++ {
		f := float64(x)
		t[x] = f * math.Log(f)
	}
	return t
}()

// xlogx is f(x) = x·ln x, taken as 0 for x ≤ 0: an empty entry
// contributes nothing, and so does an entry or degree that a stale
// asynchronous view drives below zero.
func xlogx(x int64) float64 {
	if uint64(x) < uint64(len(xlogxTable)) {
		return xlogxTable[x]
	}
	return xlogxLarge(x)
}

// xlogxLarge is xlogx beyond the table, kept out of line so that xlogx
// inlines.
//
//go:noinline
func xlogxLarge(x int64) float64 {
	if x < 0 {
		return 0
	}
	f := float64(x)
	return f * math.Log(f)
}

// entriesDelta returns Σ f(m+δ) − f(m) over the coordinates edited in
// sc, counting each exactly once: rows r and s in full, columns r and s
// excluding rows r and s. Old entries are read through sc's lines.
func (bm *Blockmodel) entriesDelta(r, s int32, sc *Scratch) float64 {
	h := sc.mRowR.addDeltas(0, &sc.rowR, -1, -1)
	h = sc.mRowS.addDeltas(h, &sc.rowS, -1, -1)
	h = sc.mColR.addDeltas(h, &sc.colR, r, s)
	return sc.mColS.addDeltas(h, &sc.colS, r, s)
}

// degreesDelta returns Σ f(d') − f(d) over the four block degrees a
// transfer of kOut out-endpoints and kIn in-endpoints from block r to
// block s changes.
func (bm *Blockmodel) degreesDelta(r, s int32, kOut, kIn int64) float64 {
	dor, dos, dir, dis := bm.DOut[r], bm.DOut[s], bm.DIn[r], bm.DIn[s]
	return xlogx(dor-kOut) - xlogx(dor) + xlogx(dos+kOut) - xlogx(dos) +
		xlogx(dir-kIn) - xlogx(dir) + xlogx(dis+kIn) - xlogx(dis)
}

// MoveDelta holds the result of evaluating a proposed vertex move. It
// aliases the Scratch it was evaluated with; commit it (ApplyMove) or
// discard it before the next evaluation on the same Scratch.
type MoveDelta struct {
	V          int     // the vertex
	From, To   int32   // blocks r → s
	DeltaS     float64 // change in description length (likelihood part); negative is better
	EmptiesSrc bool    // the move would leave block r empty
	counts     VertexCounts
	sc         *Scratch
}

// EvalMove computes the likelihood ΔS for moving v from its current block
// (under membership b) to block s, without mutating the model. b is the
// membership vector the caller is working with — bm.Assignment for the
// serial engine, a private copy for the asynchronous engines (proposals
// then use a bounded-staleness view exactly as in the paper).
func (bm *Blockmodel) EvalMove(v int, s int32, b []int32, sc *Scratch) MoveDelta {
	r := b[v]
	md := MoveDelta{V: v, From: r, To: s, sc: sc}
	if r == s {
		return md
	}
	if bm.G.Degree(v) == 1 {
		// Degree-1 fast path: the single incident edge (necessarily not a
		// self-loop, which would count twice) touches one neighbour block,
		// so the edit list is two entries and no per-block tally is
		// needed. The entries match what CountVertex+moveEdits would
		// produce, so ΔS is bit-identical to the general path's.
		var t int32
		sc.edits = sc.edits[:0]
		if out := bm.G.OutNeighbors(v); len(out) == 1 {
			t = b[out[0]]
			md.counts = VertexCounts{KOut: 1, deg1T: t}
			sc.edits = append(sc.edits, edit{r, t, -1}, edit{s, t, 1})
		} else {
			t = b[bm.G.InNeighbors(v)[0]]
			md.counts = VertexCounts{KIn: 1, deg1T: t}
			sc.edits = append(sc.edits, edit{t, r, -1}, edit{t, s, 1})
		}
	} else {
		md.counts = bm.CountVertex(v, b, sc)
		sc.moveEdits(md.counts, r, s)
	}
	sc.foldEdits(r, s, bm.C)
	sc.loadLines(bm.M, r, s)
	md.DeltaS = bm.degreesDelta(r, s, md.counts.KOut, md.counts.KIn) - bm.entriesDelta(r, s, sc)
	md.EmptiesSrc = bm.Sizes[r] == 1
	return md
}

// ApplyMove commits a previously evaluated move to the model, updating
// the matrix, degrees, sizes and assignment in place. The move must have
// been evaluated against bm.Assignment (serial Metropolis-Hastings path)
// and be the most recent evaluation on its Scratch.
func (bm *Blockmodel) ApplyMove(md MoveDelta) {
	if md.From == md.To {
		return
	}
	for _, e := range md.sc.edits {
		bm.M.Add(int(e.i), int(e.j), e.delta)
	}
	r, s := md.From, md.To
	bm.DOut[r] -= md.counts.KOut
	bm.DOut[s] += md.counts.KOut
	bm.DIn[r] -= md.counts.KIn
	bm.DIn[s] += md.counts.KIn
	bm.DTot[r] = bm.DOut[r] + bm.DIn[r]
	bm.DTot[s] = bm.DOut[s] + bm.DIn[s]
	bm.Sizes[r]--
	bm.Sizes[s]++
	bm.Assignment[md.V] = s
}

// EvalMerge computes the likelihood ΔS for merging block r into block s,
// without mutating the model. The model-complexity term is omitted: every
// merge reduces the block count by exactly one, so it is a constant
// offset when ranking merges (Algorithm 1 sorts on this delta).
func (bm *Blockmodel) EvalMerge(r, s int32, sc *Scratch) float64 {
	if r == s {
		return 0
	}
	bm.mergeEdits(r, s, sc)
	sc.foldEdits(r, s, bm.C)
	sc.loadLines(bm.M, r, s)
	return bm.degreesDelta(r, s, bm.DOut[r], bm.DIn[r]) - bm.entriesDelta(r, s, sc)
}
