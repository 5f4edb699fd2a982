package blockmodel

// blockVec is a reusable vector indexed by block id, the workhorse
// container of move evaluation. It is a generation-stamped sparse set:
// reset is O(1) (bump the generation), add/get are O(1) array accesses
// with no hashing, and iteration is O(touched entries). This matters
// because one vector is reset for every proposal, millions of times per
// run, at block counts ranging from a handful to the vertex count.
type blockVec struct {
	val   []int64
	stamp []uint32
	keys  []int32
	gen   uint32
}

// A blockVec that served an early iteration at C ≈ N would otherwise
// retain O(N) arrays for the rest of the run even after the search
// converges to a few dozen blocks — multiplied by containers per
// Scratch and Scratch per worker. reset therefore reallocates at the
// requested size when the retained capacity is both large in absolute
// terms and a large multiple of the current block universe, bounding
// steady-state retained memory to O(C) without thrashing on small
// vectors or on block counts that shrink gradually.
const (
	blockVecShrinkFactor = 4    // shrink when cap ≥ factor·c ...
	blockVecShrinkMinCap = 4096 // ... and more than this many slots are retained
)

// reset prepares the vector for a block universe of size c, logically
// clearing any previous contents in O(1) (amortized: see the shrink
// policy above).
func (b *blockVec) reset(c int) {
	if cp := cap(b.val); cp < c || (cp > blockVecShrinkMinCap && cp >= blockVecShrinkFactor*c) {
		b.val = make([]int64, c)
		b.stamp = make([]uint32, c)
		if cap(b.keys) > c {
			b.keys = make([]int32, 0, c)
		}
	} else {
		b.val = b.val[:c]
		b.stamp = b.stamp[:c]
	}
	b.keys = b.keys[:0]
	b.gen++
	if b.gen == 0 { // stamp wrap-around: physically clear once per 2^32 resets
		clear(b.stamp)
		b.gen = 1
	}
}

// retainedCap reports how many value slots the vector keeps allocated,
// for tests asserting the shrink policy holds.
func (b *blockVec) retainedCap() int { return cap(b.val) }

// touch ensures slot k belongs to the current generation.
func (b *blockVec) touch(k int32) {
	if b.stamp[k] != b.gen {
		b.stamp[k] = b.gen
		b.val[k] = 0
		b.keys = append(b.keys, k)
	}
}

func (b *blockVec) add(k int32, d int64) {
	b.touch(k)
	b.val[k] += d
}

func (b *blockVec) get(k int32) int64 {
	if int(k) >= len(b.stamp) || b.stamp[k] != b.gen {
		return 0
	}
	return b.val[k]
}

// scatter sets slot idx[i] to vals[i] for every i without recording the
// keys: a vector filled this way serves get only, not iterate. idx must
// hold distinct in-range keys, and the vector must have been reset since
// its last fill.
func (b *blockVec) scatter(idx []int32, vals []int64) {
	for i, k := range idx {
		b.stamp[k] = b.gen
		b.val[k] = vals[i]
	}
}

// iterate calls fn for every touched entry with a nonzero value. A key
// is visited at most once even if added repeatedly.
func (b *blockVec) iterate(fn func(k int32, v int64)) {
	for _, k := range b.keys {
		if v := b.val[k]; v != 0 {
			fn(k, v)
		}
	}
}
