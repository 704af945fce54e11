package spgemm

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/mmu"
	"repro/internal/workload"
)

// TestComputeMMAPrestageBitIdentical pins the slab route against the
// reference oracle: executing MMAs straight off the prestaged pair slab
// through the fused DMMABatch is bitwise indistinguishable from the
// CUBIE_NO_PANEL tile-at-a-time route over the same operands.
func TestComputeMMAPrestageBitIdentical(t *testing.T) {
	w := New()
	d, err := w.data(w.Representative())
	if err != nil {
		t.Fatal(err)
	}
	was := mmu.SetPanelEnabled(false)
	want := computeMMA(d)
	mmu.SetPanelEnabled(was)
	got := computeMMA(d)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("differs bitwise at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestPairSlabBuiltOnce pins slab ownership: the case builds its pair slab
// on the first MMA run and every later run reads it, so two TC runs of one
// case raise cubie_prestage_slabs_total by exactly one.
func TestPairSlabBuiltOnce(t *testing.T) {
	w := New()
	c := w.Representative()
	before := slabsBuilt()
	for i := 0; i < 2; i++ {
		if _, err := w.Run(c, workload.TC); err != nil {
			t.Fatal(err)
		}
	}
	if got := slabsBuilt() - before; got != 1 {
		t.Fatalf("two TC runs built %d pair slabs, want 1", got)
	}
}

// TestRunLeavesOperandsUnchanged pins the ownership contract the pair slab
// relies on: the case's mBSR blocks are built once, and no variant's Run
// (nor Reference) writes them, so the slab built on the first MMA run stays
// valid for every later one.
func TestRunLeavesOperandsUnchanged(t *testing.T) {
	w := New()
	c := w.Representative()
	d, err := w.data(c)
	if err != nil {
		t.Fatal(err)
	}
	checksum := func() uint64 {
		h := uint64(14695981039346656037)
		for i := range d.bsr.Blocks {
			for _, x := range d.bsr.Blocks[i].Vals {
				h = (h ^ math.Float64bits(x)) * 1099511628211
			}
		}
		return h
	}
	before := checksum()
	for _, v := range w.Variants() {
		if _, err := w.Run(c, v); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
	}
	if _, err := w.Reference(c); err != nil {
		t.Fatal(err)
	}
	if d2, _ := w.data(c); d2 != d {
		t.Fatal("case data rebuilt between runs")
	}
	if checksum() != before {
		t.Fatal("a run modified the case's mBSR block values")
	}
}

// slabsBuilt reads cubie_prestage_slabs_total (get-or-create returns the
// counter the slab builders increment).
func slabsBuilt() uint64 {
	return metrics.NewCounter("cubie_prestage_slabs_total", "").Value()
}

// TestPairOffMatchesQueue pins the pair-slab index table against the actual
// queue lengths: pairOff[bi+1]-pairOff[bi] must equal ceil(rowProducts/2)
// for every block row — the invariant that lets the hot loop address the
// shared slab by (pairOff[bi] + s/2) with no per-row bookkeeping.
func TestPairOffMatchesQueue(t *testing.T) {
	w := New()
	d, err := w.data(w.Representative())
	if err != nil {
		t.Fatal(err)
	}
	b := d.bsr
	if len(d.pairOff) != b.BlockRows+1 {
		t.Fatalf("len(pairOff) = %d, want %d", len(d.pairOff), b.BlockRows+1)
	}
	for bi := 0; bi < b.BlockRows; bi++ {
		want := (rowProducts(b, bi) + 1) / 2
		if got := int(d.pairOff[bi+1] - d.pairOff[bi]); got != want {
			t.Fatalf("block row %d: pairOff span %d, want %d", bi, got, want)
		}
	}
}

// TestPairSlabMatchesStaging cross-checks the prestaged slab bytes against
// the paired-MMA operand layout for a few MMAs: A halves are the straight
// 16-float flatten of the A block, B halves the 4×4 block packed at stride 8
// with a half-column offset.
func TestPairSlabMatchesStaging(t *testing.T) {
	w := New()
	d, err := w.data(w.Representative())
	if err != nil {
		t.Fatal(err)
	}
	b := d.bsr
	slabA, slabB := d.pairSlab()
	checked := 0
	for bi := 0; bi < b.BlockRows && checked < 64; bi++ {
		mma := int(d.pairOff[bi])
		idx := 0
		for p := b.RowPtr[bi]; p < b.RowPtr[bi+1]; p++ {
			ab := &b.Blocks[p]
			k := int(ab.BlockCol)
			for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
				bb := &b.Blocks[q]
				off := (mma + idx/2) * pairTile
				half := idx % 2
				for r := 0; r < 4; r++ {
					for c := 0; c < 4; c++ {
						if got := slabA[off+half*16+r*4+c]; got != ab.Vals[r*4+c] {
							t.Fatalf("block row %d product %d: A[%d,%d] = %v, want %v",
								bi, idx, r, c, got, ab.Vals[r*4+c])
						}
						if got := slabB[off+r*8+half*4+c]; got != bb.Vals[r*4+c] {
							t.Fatalf("block row %d product %d: B[%d,%d] = %v, want %v",
								bi, idx, r, c, got, bb.Vals[r*4+c])
						}
					}
				}
				idx++
				checked++
			}
		}
		// An odd product count leaves the final MMA's second half zeroed.
		if idx%2 == 1 {
			off := (mma + idx/2) * pairTile
			for r := 0; r < 4; r++ {
				for c := 0; c < 4; c++ {
					if slabA[off+16+r*4+c] != 0 || slabB[off+r*8+4+c] != 0 {
						t.Fatalf("block row %d: odd-tail second half not zeroed", bi)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("representative produced no block products")
	}
}
