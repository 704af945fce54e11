package spmv

import (
	"math"
	"testing"

	"repro/internal/mmu"
	"repro/internal/sparse"
)

// mixedCSR builds a matrix with short, medium, and long DASP rows so every
// prestage code path (including the lane-split long-row finish) executes.
func mixedCSR(t *testing.T) (*sparse.CSR, []float64) {
	t.Helper()
	const rows, cols = 48, 160
	coo := sparse.NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		var nnz int
		switch {
		case i%12 == 0:
			nnz = 90 // long
		case i%3 == 0:
			nnz = 24 // medium
		default:
			nnz = 1 + i%4 // short
		}
		for k := 0; k < nnz; k++ {
			coo.Add(i, (i*29+k*7)%cols, float64(i+1)+float64(k)*0.0625)
		}
	}
	m := coo.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, cols)
	for j := range x {
		x[j] = 1.0 + float64(j)*0.03125
	}
	return m, x
}

func bitEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: differs bitwise at %d: %v vs %v", label, i, got[i], want[i])
		}
	}
}

// TestApplyDASPPrestageBitIdentical pins the prestaged route against the
// reference oracle: consuming the prestaged APanels/BCols slabs through the
// fused panel sweep is bitwise indistinguishable from the CUBIE_NO_PANEL
// tile-at-a-time route over the same slabs, on a matrix covering all three
// row categories — and both are the true product.
func TestApplyDASPPrestageBitIdentical(t *testing.T) {
	m, x := mixedCSR(t)
	dasp := sparse.ToDASP(m)
	fused := ApplyDASP(dasp, x)
	was := mmu.SetPanelEnabled(false)
	tileLoop := ApplyDASP(dasp, x)
	mmu.SetPanelEnabled(was)
	bitEqual(t, "fused panels vs tile loop", fused, tileLoop)

	for i := 0; i < m.Rows; i++ {
		var acc float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			acc += m.Vals[k] * x[m.ColIdx[k]]
		}
		if d := math.Abs(fused[i] - acc); d > 1e-9 {
			t.Fatalf("row %d: prestaged result %v vs scalar %v", i, fused[i], acc)
		}
	}
}

// applyAllocsBudget bounds a warm ApplyDASP call: the output vector plus
// ForTiles bookkeeping; the gather scratch must come from the pools.
const applyAllocsBudget = 64

// TestApplyDASPWarmAllocs is the steady-state allocation contract of the
// prestaged apply: once the slabs are built and the pools are warm, no
// per-block staging allocation remains.
func TestApplyDASPWarmAllocs(t *testing.T) {
	m, x := mixedCSR(t)
	dasp := sparse.ToDASP(m)
	ApplyDASP(dasp, x) // build the slabs, warm the pools
	if n := testing.AllocsPerRun(5, func() { ApplyDASP(dasp, x) }); n > applyAllocsBudget {
		t.Errorf("%v allocs/run, want ≤ %d", n, applyAllocsBudget)
	}
}
