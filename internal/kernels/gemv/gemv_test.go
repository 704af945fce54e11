package gemv

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
	if w.Name() != "GEMV" || w.Quadrant() != 4 {
		t.Fatal("bad metadata")
	}
	if len(w.Cases()) != 5 {
		t.Fatal("want 5 cases")
	}
	if w.Cases()[1].Dims[1] != 32 {
		t.Fatal("4Kx32 case wrong")
	}
	if w.Repeats() != 6_000_000 {
		t.Fatal("Figure 7 repeat count wrong")
	}
}

func TestAllVariantsNearReference(t *testing.T) {
	w := New()
	for _, c := range w.Cases()[:2] {
		ref, err := w.Reference(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range w.Variants() {
			res, err := w.Run(c, v)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Output) != len(ref) {
				t.Fatalf("%s/%s: length %d want %d", c.Name, v, len(res.Output), len(ref))
			}
			for i := range ref {
				if d := math.Abs(res.Output[i] - ref[i]); d > 1e-13 {
					t.Fatalf("%s/%s: error %v at %d", c.Name, v, d, i)
				}
			}
		}
	}
}

func TestTCIdenticalToCC(t *testing.T) {
	w := New()
	for _, c := range w.Cases() {
		tc, _ := w.Run(c, workload.TC)
		cc, _ := w.Run(c, workload.CC)
		for i := range tc.Output {
			if tc.Output[i] != cc.Output[i] {
				t.Fatalf("%s: TC and CC differ at %d", c.Name, i)
			}
		}
	}
}

func TestBaselineOrderDiffers(t *testing.T) {
	// The tree-reduced baseline must differ in rounding from the MMA chain
	// somewhere across the cases (Table 6 mechanism).
	w := New()
	differs := false
	for _, c := range w.Cases() {
		tc, _ := w.Run(c, workload.TC)
		bl, _ := w.Run(c, workload.Baseline)
		for i := range tc.Output {
			if tc.Output[i] != bl.Output[i] {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("baseline never deviates from TC in rounding")
	}
}

func TestUtilizationQuadrantIV(t *testing.T) {
	w := New()
	tc, _ := w.Run(w.Cases()[0], workload.TC)
	if tc.InputUtil != 1 {
		t.Error("GEMV uses full input")
	}
	if tc.OutputUtil >= 0.5 {
		t.Errorf("GEMV output utilization %v should be partial", tc.OutputUtil)
	}
}

func TestPerformanceShape(t *testing.T) {
	w := New()
	c := w.Cases()[4] // largest
	tc, _ := w.Run(c, workload.TC)
	cc, _ := w.Run(c, workload.CC)
	cce, _ := w.Run(c, workload.CCE)
	bl, _ := w.Run(c, workload.Baseline)
	for _, spec := range device.All() {
		tTC := sim.Run(spec, tc.Profile).Time
		tCC := sim.Run(spec, cc.Profile).Time
		tCCE := sim.Run(spec, cce.Profile).Time
		tBL := sim.Run(spec, bl.Profile).Time
		if tTC >= tBL {
			t.Errorf("%s: TC (%v) not faster than baseline (%v)", spec.Name, tTC, tBL)
		}
		// CC retains most but not all of TC performance (Figure 5, QIV).
		if r := tTC / tCC; r < 0.5 || r > 0.95 {
			t.Errorf("%s: CC/TC = %v outside [0.5, 0.95]", spec.Name, r)
		}
		// CC-E slightly slower than TC (Section 6.3).
		if r := tTC / tCCE; r < 0.75 || r >= 1.0 {
			t.Errorf("%s: CC-E/TC = %v, want slightly below 1", spec.Name, r)
		}
	}
}

func TestMemoryBound(t *testing.T) {
	w := New()
	tc, _ := w.Run(w.Cases()[3], workload.TC)
	r := sim.Run(device.H200(), tc.Profile)
	if r.Bottleneck != "DRAM" {
		t.Errorf("GEMV TC bottleneck = %s, want DRAM", r.Bottleneck)
	}
	if ai := tc.Profile.ArithmeticIntensity(); ai > 16 {
		t.Errorf("arithmetic intensity %v too high for a memory-bound kernel", ai)
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
	if _, err := w.Reference(workload.Case{Name: "bad"}); err == nil {
		t.Error("malformed reference case accepted")
	}
}

func TestGEMVLinearity(t *testing.T) {
	// A·(x + y) must equal A·x + A·y up to rounding — the operator property
	// of the MMA GEMV path.
	m, n := 128, 16
	g := lcg.New(99)
	a := tensor.NewMatrix(m, n)
	g.Fill(a.Data)
	x := make([]float64, n)
	y := make([]float64, n)
	g.Fill(x)
	g.Fill(y)
	sum := make([]float64, n)
	for i := range sum {
		sum[i] = x[i] + y[i]
	}
	d := &caseData{a: a}
	ax := d.computeMMA(x)
	ay := d.computeMMA(y)
	asum := d.computeMMA(sum)
	for i := 0; i < m; i++ {
		if d := math.Abs(asum[i] - (ax[i] + ay[i])); d > 1e-13 {
			t.Fatalf("linearity violated at %d: %v", i, d)
		}
	}
}

func TestGEMVZeroVector(t *testing.T) {
	m, n := 64, 16
	a := tensor.NewMatrix(m, n)
	lcg.New(7).Fill(a.Data)
	y := (&caseData{a: a}).computeMMA(make([]float64, n))
	for i, v := range y {
		if v != 0 {
			t.Fatalf("A·0 nonzero at %d: %v", i, v)
		}
	}
}
