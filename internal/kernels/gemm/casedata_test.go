package gemm

import (
	"math"
	"testing"

	"repro/internal/workload"
)

// checksum folds the IEEE-754 bit patterns of vs into one FNV-1a hash.
func checksum(vs ...[]float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vs {
		for _, x := range v {
			h = (h ^ math.Float64bits(x)) * 1099511628211
		}
	}
	return h
}

// TestRunLeavesOperandsUnchanged pins the ownership contract the packed
// panels rely on: the case's inputs are built once, and no variant's Run
// (nor Reference) writes them, so panels packed on the first run stay valid
// for every later one.
func TestRunLeavesOperandsUnchanged(t *testing.T) {
	w := New()
	c := w.Representative()
	m, n, k, err := dims(c)
	if err != nil {
		t.Fatal(err)
	}
	d := w.data(m, n, k)
	before := checksum(d.a.Data, d.b.Data)
	for _, v := range w.Variants() {
		if _, err := w.Run(c, v); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
	}
	if _, err := w.Reference(c); err != nil {
		t.Fatal(err)
	}
	if w.data(m, n, k) != d {
		t.Fatal("case data rebuilt between runs")
	}
	if checksum(d.a.Data, d.b.Data) != before {
		t.Fatal("a run modified the case's A/B operands")
	}
}

// warmTCAllocs bounds a warm GEMM TC run: the Result, the output matrix, and
// the ForTiles bookkeeping. Re-packing either operand would add its slab.
const warmTCAllocs = 14

// TestWarmTCRunAllocs is the steady-state contract of a warm TC run: the
// packed panels are read, never rebuilt, and nothing per tile allocates.
func TestWarmTCRunAllocs(t *testing.T) {
	w := New()
	c := w.Representative()
	if _, err := w.Run(c, workload.TC); err != nil {
		t.Fatal(err)
	}
	m, n, k, _ := dims(c)
	aAll, bAll := w.data(m, n, k).panels()
	if got := testing.AllocsPerRun(5, func() { w.Run(c, workload.TC) }); got > warmTCAllocs {
		t.Errorf("warm TC run: %v allocs, want ≤ %d", got, warmTCAllocs)
	}
	a2, b2 := w.data(m, n, k).panels()
	if &a2[0] != &aAll[0] || &b2[0] != &bAll[0] {
		t.Error("warm TC run re-packed the case's operands")
	}
}
