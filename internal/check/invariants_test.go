package check

import (
	"strings"
	"testing"

	"repro/internal/blockmodel"
)

// TestInvariantsDetectCorruption injects one bookkeeping error at a time
// into a consistent blockmodel and requires Invariants to report it,
// naming the corrupted quantity.
func TestInvariantsDetectCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(bm *blockmodel.Blockmodel)
		want    string // substring of the expected diagnostic
	}{
		{
			name:    "block matrix drift",
			corrupt: func(bm *blockmodel.Blockmodel) { bm.M.Add(0, 1, 1) },
			want:    "M[0][1]",
		},
		{
			name:    "block matrix underflow-adjacent drift",
			corrupt: func(bm *blockmodel.Blockmodel) { bm.M.Add(2, 2, 3) },
			want:    "M[2][2]",
		},
		{
			name:    "out-degree drift",
			corrupt: func(bm *blockmodel.Blockmodel) { bm.DOut[2]++ },
			want:    "DOut[2]",
		},
		{
			name:    "in-degree drift",
			corrupt: func(bm *blockmodel.Blockmodel) { bm.DIn[1] -= 2 },
			want:    "DIn[1]",
		},
		{
			name:    "total-degree drift",
			corrupt: func(bm *blockmodel.Blockmodel) { bm.DTot[0] += 5 },
			want:    "DTot[0]",
		},
		{
			name:    "size drift",
			corrupt: func(bm *blockmodel.Blockmodel) { bm.Sizes[1]-- },
			want:    "Sizes[1]",
		},
		{
			name:    "assignment out of range",
			corrupt: func(bm *blockmodel.Blockmodel) { bm.Assignment[3] = int32(bm.C) },
			want:    "outside",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bm := randomModel(t, 42, 15, 4, 50)
			if err := Invariants(bm); err != nil {
				t.Fatalf("pre-corruption state invalid: %v", err)
			}
			tc.corrupt(bm)
			err := Invariants(bm)
			if err == nil {
				t.Fatal("Invariants accepted a corrupted state")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("diagnostic %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestInvariantsReportFirstDivergentEntry corrupts two matrix entries
// and requires the diagnostic to name the row-major-first one, so a
// failing verified run always points at a deterministic location.
func TestInvariantsReportFirstDivergentEntry(t *testing.T) {
	bm := randomModel(t, 43, 12, 4, 40)
	bm.M.Add(3, 0, 2)
	bm.M.Add(1, 2, 1)
	err := Invariants(bm)
	if err == nil {
		t.Fatal("Invariants accepted a corrupted state")
	}
	if !strings.Contains(err.Error(), "M[1][2]") {
		t.Fatalf("diagnostic %q should name the first divergent entry M[1][2]", err)
	}
	if !strings.Contains(err.Error(), "diff +1") {
		t.Fatalf("diagnostic %q should carry the count diff", err)
	}
}

func TestInvariantsPassAfterRebuildAndCompact(t *testing.T) {
	bm := randomModel(t, 44, 20, 8, 60)
	// Empty a block, then compact; both states must validate.
	membership := append([]int32(nil), bm.Assignment...)
	for v, b := range membership {
		if b == 7 {
			membership[v] = 0
		}
	}
	bm.RebuildFrom(membership)
	if err := Invariants(bm); err != nil {
		t.Fatalf("after rebuild: %v", err)
	}
	bm.Compact(2)
	if err := Invariants(bm); err != nil {
		t.Fatalf("after compact: %v", err)
	}
}
