package gemm

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/lcg"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/workload"
)

func TestMetadata(t *testing.T) {
	w := New()
	if w.Name() != "GEMM" || w.Quadrant() != 1 {
		t.Fatal("bad metadata")
	}
	cases := w.Cases()
	if len(cases) != 5 {
		t.Fatalf("%d cases, want 5", len(cases))
	}
	if cases[0].Name != "256x256x256" || cases[4].Dims[0] != 4096 {
		t.Fatal("Table 2 cases wrong")
	}
	if w.Repeats() != 500 {
		t.Fatal("Figure 7 repeat count wrong")
	}
}

func TestCorrectnessAgainstReference(t *testing.T) {
	w := New()
	c := w.Cases()[0]
	ref, err := w.Reference(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []workload.Variant{workload.TC, workload.CC, workload.Baseline} {
		res, err := w.Run(c, v)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Output) != len(ref) {
			t.Fatalf("%s: output length %d, want %d", v, len(res.Output), len(ref))
		}
		var maxErr float64
		for i := range ref {
			if d := math.Abs(res.Output[i] - ref[i]); d > maxErr {
				maxErr = d
			}
		}
		// k = 256 dot products of (-2,2) values: errors stay tiny.
		if maxErr > 1e-11 {
			t.Errorf("%s: max error %v vs reference", v, maxErr)
		}
	}
}

func TestTCIdenticalToCC(t *testing.T) {
	w := New()
	c := w.Cases()[0]
	tc, _ := w.Run(c, workload.TC)
	cc, _ := w.Run(c, workload.CC)
	for i := range tc.Output {
		if tc.Output[i] != cc.Output[i] {
			t.Fatalf("TC and CC outputs differ at %d", i)
		}
	}
}

func TestTCDiffersFromBaselineInRounding(t *testing.T) {
	// The double-buffered MMA accumulation must produce at least some
	// elements with different last-bit rounding than the single-chain
	// baseline — the mechanism behind Table 6's GEMM row.
	w := New()
	tc, _ := w.Run(w.Cases()[0], workload.TC)
	bl, _ := w.Run(w.Cases()[0], workload.Baseline)
	same := true
	for i := range tc.Output {
		if tc.Output[i] != bl.Output[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("TC and Baseline outputs are bit-identical; accumulation orders should differ")
	}
}

func TestLargeCaseProfileOnly(t *testing.T) {
	w := New()
	c := w.Cases()[4] // 4K³
	res, err := w.Run(c, workload.TC)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != nil {
		t.Error("4K case should not execute arithmetic")
	}
	wantFLOPs := 2.0 * 4096 * 4096 * 4096
	if res.Profile.TensorFLOPs != wantFLOPs {
		t.Errorf("TensorFLOPs = %v, want %v", res.Profile.TensorFLOPs, wantFLOPs)
	}
	if res.Work != wantFLOPs {
		t.Error("essential work should equal 2MNK")
	}
}

func TestVariantProfilesDisjointUnits(t *testing.T) {
	w := New()
	c := w.Cases()[2]
	tc, _ := w.Run(c, workload.TC)
	cc, _ := w.Run(c, workload.CC)
	bl, _ := w.Run(c, workload.Baseline)
	if tc.Profile.TensorFLOPs == 0 || tc.Profile.VectorFLOPs != 0 {
		t.Error("TC must issue tensor FLOPs only")
	}
	if cc.Profile.VectorFLOPs == 0 || cc.Profile.TensorFLOPs != 0 {
		t.Error("CC must issue vector FLOPs only")
	}
	if bl.Profile.VectorFLOPs != cc.Profile.VectorFLOPs {
		t.Error("baseline and CC share the same essential FLOPs for GEMM")
	}
}

func TestPerformanceShape(t *testing.T) {
	// Figure 4/5 shape: TC beats baseline on every GPU; CC lands around
	// 0.4–0.8× of TC.
	w := New()
	c := w.Cases()[4]
	tc, _ := w.Run(c, workload.TC)
	cc, _ := w.Run(c, workload.CC)
	bl, _ := w.Run(c, workload.Baseline)
	for _, spec := range device.All() {
		tTC := sim.Run(spec, tc.Profile).Time
		tCC := sim.Run(spec, cc.Profile).Time
		tBL := sim.Run(spec, bl.Profile).Time
		if tTC >= tBL {
			t.Errorf("%s: TC (%v) not faster than baseline (%v)", spec.Name, tTC, tBL)
		}
		ratio := tTC / tCC // CC speedup over TC, < 1
		if ratio < 0.3 || ratio > 0.85 {
			t.Errorf("%s: CC/TC perf ratio %v outside [0.3, 0.85]", spec.Name, ratio)
		}
	}
}

func TestThroughputBelowPeak(t *testing.T) {
	w := New()
	c := w.Cases()[4]
	tc, _ := w.Run(c, workload.TC)
	for _, spec := range device.All() {
		r := sim.Run(spec, tc.Profile)
		tflops := tc.Work / r.Time / 1e12
		if tflops >= spec.TensorFP64 {
			t.Errorf("%s: modeled %v TFLOPS exceeds tensor peak %v",
				spec.Name, tflops, spec.TensorFP64)
		}
		if tflops < spec.TensorFP64*0.2 {
			t.Errorf("%s: modeled %v TFLOPS implausibly low", spec.Name, tflops)
		}
	}
}

func TestUnknownVariantAndBadCase(t *testing.T) {
	w := New()
	if _, err := w.Run(w.Cases()[0], "nope"); err == nil {
		t.Error("unknown variant accepted")
	}
	if _, err := w.Run(workload.Case{Name: "bad"}, workload.TC); err == nil {
		t.Error("malformed case accepted")
	}
	if _, err := w.Reference(w.Cases()[4]); err == nil {
		t.Error("reference for over-budget case should fail")
	}
}

func TestMultiplyMMARectangular(t *testing.T) {
	// The tiled MMA path must handle non-square and non-multiple-of-8
	// shapes via zero padding.
	for _, shape := range [][3]int{{24, 40, 16}, {17, 9, 33}, {8, 8, 4}, {1, 1, 1}} {
		m, n, k := shape[0], shape[1], shape[2]
		g := lcg.New(int64(m*1000 + n*10 + k))
		a := tensor.NewMatrix(m, k)
		bm := tensor.NewMatrix(k, n)
		g.Fill(a.Data)
		g.Fill(bm.Data)
		got := (&caseData{a: a, b: bm}).multiplyMMA()
		if got.Rows != m || got.Cols != n {
			t.Fatalf("%v: output %dx%d", shape, got.Rows, got.Cols)
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var want float64
				for kk := 0; kk < k; kk++ {
					want += a.At(i, kk) * bm.At(kk, j)
				}
				if d := math.Abs(got.At(i, j) - want); d > 1e-12 {
					t.Fatalf("%v: C(%d,%d) = %v, want ≈%v", shape, i, j, got.At(i, j), want)
				}
			}
		}
	}
}
