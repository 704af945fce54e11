// Package gemv implements the GEMV workload: y = A·x for tall-skinny dense
// matrices. The TC version partitions A into 8×4 blocks, broadcasts the
// matching x segment into all eight columns of the 4×8 B operand, runs the
// FP64 m8n8k4 MMA, and extracts one column of the (all-equal-column) output
// tile — Quadrant IV: full input, partial output (Figure 2).
package gemv

import (
	"fmt"
	"sync"

	"repro/internal/lcg"
	"repro/internal/mmu"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// Workload is the GEMV kernel. It caches each case's operands and the packed
// A panels across runs.
type Workload struct {
	mu    sync.Mutex
	cache map[[2]int]*caseData
}

// caseData owns one case's operands: the LCG inputs A and x and, packed once
// on first MMA use, A's row-panel slab. Nothing writes A after generation, so
// the packed panels never go stale.
type caseData struct {
	a        *tensor.Matrix
	x        []float64
	packOnce sync.Once
	aPacked  []float64
}

// New returns the GEMV workload.
func New() *Workload { return &Workload{cache: map[[2]int]*caseData{}} }

// Name implements workload.Workload.
func (*Workload) Name() string { return "GEMV" }

// Quadrant implements workload.Workload (Figure 2, Quadrant IV).
func (*Workload) Quadrant() int { return 4 }

// Dwarf implements workload.Workload.
func (*Workload) Dwarf() string { return "Dense linear algebra" }

// Cases returns the five M×N test cases of Table 2.
func (*Workload) Cases() []workload.Case {
	mk := func(m, n int, name string) workload.Case {
		return workload.Case{Name: name, Dims: []int{m, n}}
	}
	return []workload.Case{
		mk(4096, 16, "4Kx16"),
		mk(4096, 32, "4Kx32"),
		mk(11264, 16, "11Kx16"),
		mk(32768, 16, "32Kx16"),
		mk(40960, 16, "40Kx16"),
	}
}

// Variants implements workload.Workload.
func (*Workload) Variants() []workload.Variant {
	return []workload.Variant{workload.Baseline, workload.TC, workload.CC, workload.CCE}
}

// Representative implements workload.Workload.
func (w *Workload) Representative() workload.Case { return w.Cases()[0] }

// Repeats implements workload.Workload: GEMV is the 6M-repeat micro-kernel
// of Figure 7.
func (*Workload) Repeats() int { return 6_000_000 }

func dims(c workload.Case) (m, n int, err error) {
	if len(c.Dims) != 2 {
		return 0, 0, fmt.Errorf("gemv: case %q needs 2 dims", c.Name)
	}
	return c.Dims[0], c.Dims[1], nil
}

// data returns the case's operands, deterministically generating them on
// first use.
func (w *Workload) data(m, n int) *caseData {
	w.mu.Lock()
	defer w.mu.Unlock()
	if d, ok := w.cache[[2]int{m, n}]; ok {
		return d
	}
	g := lcg.New(int64(m)*31 + int64(n))
	d := &caseData{a: tensor.NewMatrix(m, n), x: make([]float64, n)}
	g.Fill(d.a.Data)
	g.Fill(d.x)
	w.cache[[2]int{m, n}] = d
	return d
}

// panels returns A packed for the k-sweep, packing it on first use:
// ceil(m/8) row-panels of kTiles 8×4 tiles back to back, edge tiles
// zero-filled by PackAPanel. Safe for concurrent use.
func (d *caseData) panels() []float64 {
	d.packOnce.Do(func() {
		kTiles := (d.a.Cols + mmu.K - 1) / mmu.K
		rowTiles := (d.a.Rows + mmu.M - 1) / mmu.M
		stride := kTiles * mmu.M * mmu.K
		d.aPacked = make([]float64, rowTiles*stride)
		for ti := 0; ti < rowTiles; ti++ {
			d.a.PackAPanel(d.aPacked[ti*stride:(ti+1)*stride], ti*mmu.M, 0, kTiles)
		}
	})
	return d.aPacked
}

// Run implements workload.Workload.
func (w *Workload) Run(c workload.Case, v workload.Variant) (*workload.Result, error) {
	m, n, err := dims(c)
	if err != nil {
		return nil, err
	}
	d := w.data(m, n)
	a, x := d.a, d.x
	res := &workload.Result{
		Work:       2 * float64(m) * float64(n),
		MetricName: "GFLOPS",
	}
	switch v {
	case workload.TC:
		res.Profile = tcProfile(m, n)
		res.Output = d.computeMMA(x)
		res.InputUtil, res.OutputUtil = 1, 1.0/mmu.N
	case workload.CC:
		res.Profile = ccProfile(m, n)
		res.Output = d.computeMMA(x) // identical algorithm on the vector unit
		res.InputUtil, res.OutputUtil = 1, 1.0/mmu.N
	case workload.CCE:
		res.Profile = cceProfile(m, n)
		res.Output = computeEssential(a, x)
	case workload.Baseline:
		res.Profile = baselineProfile(m, n)
		res.Output = computeBaseline(a, x)
	default:
		return nil, fmt.Errorf("gemv: unknown variant %q", v)
	}
	return res, nil
}

// Reference implements workload.Workload: serial dot products with separate
// multiply and add.
func (w *Workload) Reference(c workload.Case) ([]float64, error) {
	m, n, err := dims(c)
	if err != nil {
		return nil, err
	}
	d := w.data(m, n)
	a, x := d.a, d.x
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		var acc float64
		for j := 0; j < n; j++ {
			acc += a.At(i, j) * x[j]
		}
		y[i] = acc
	}
	return y, nil
}

// gemvScratch pools the C accumulator plus the broadcast B panel, whose
// length depends on the case's n extent.
var gemvScratch = par.NewSizedScratch()

// computeMMA runs the TC algorithm on the panel engine: 8-row blocks of A,
// x broadcast into B, a fused k-sweep per block, first column of C extracted
// as y. The broadcast B panel depends only on x, so it is built once per call
// and reused by every row block (the tile-at-a-time version rebuilt the same
// 4×8 broadcast tile m/8 × n/4 times); A comes packed from the case (see
// panels), so repeat runs (sweeps, TC/CC variant pairs) never re-pack the
// tall-skinny matrix. Packed bytes and per-element FMA order are those of
// the tile loop — the same ascending-k chain — so results are bit-identical
// (CUBIE_NO_PANEL=1 verifies).
func (d *caseData) computeMMA(x []float64) []float64 {
	m, n := d.a.Rows, d.a.Cols
	y := make([]float64, m)
	kTiles := (n + mmu.K - 1) / mmu.K
	aAll := d.panels()
	aStride := kTiles * mmu.M * mmu.K
	buf := gemvScratch.Get(mmu.M*mmu.N + kTiles*mmu.K*mmu.N)
	defer gemvScratch.Put(buf)
	cT := buf[0 : mmu.M*mmu.N]
	bPanel := buf[mmu.M*mmu.N:]
	for t := 0; t < kTiles; t++ {
		tile := bPanel[t*mmu.K*mmu.N:]
		for k := 0; k < mmu.K; k++ {
			var xv float64
			if t*mmu.K+k < n {
				xv = x[t*mmu.K+k]
			}
			for j := 0; j < mmu.N; j++ {
				tile[k*mmu.N+j] = xv // broadcast x into every column
			}
		}
	}
	for i0, ti := 0, 0; i0 < m; i0, ti = i0+mmu.M, ti+1 {
		aPanel := aAll[ti*aStride : (ti+1)*aStride]
		for i := range cT {
			cT[i] = 0
		}
		mmu.DMMAPanel(cT, aPanel, bPanel, kTiles)
		for i := 0; i < mmu.M && i0+i < m; i++ {
			y[i0+i] = cT[i*mmu.N] // column 0 of the all-equal output tile
		}
	}
	return y
}

// computeEssential is the CC-E path: only the mathematically necessary
// multiply-adds, vectorized four lanes per row with strided partial sums —
// a different accumulation order than the MMA chain (Table 6: CC-E deviates
// from TC/CC).
func computeEssential(a *tensor.Matrix, x []float64) []float64 {
	m, n := a.Rows, a.Cols
	y := make([]float64, m)
	const lanes = 4
	for i := 0; i < m; i++ {
		var part [lanes]float64
		for j := 0; j < n; j++ {
			part[j%lanes] = mmu.FMA(a.At(i, j), x[j], part[j%lanes])
		}
		y[i] = (part[0] + part[1]) + (part[2] + part[3])
	}
	return y
}

// computeBaseline is the cuBLAS-class vector GEMV: a warp of 32 lanes per
// row with strided partial sums and a binary-tree lane reduction.
func computeBaseline(a *tensor.Matrix, x []float64) []float64 {
	m, n := a.Rows, a.Cols
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		var part [32]float64
		for j := 0; j < n; j++ {
			part[j%32] = mmu.FMA(a.At(i, j), x[j], part[j%32])
		}
		for stride := 16; stride >= 1; stride /= 2 {
			for l := 0; l < stride; l++ {
				part[l] += part[l+stride]
			}
		}
		y[i] = part[0]
	}
	return y
}

// Profiles. GEMV is memory-bound: AI = 2 FLOPs per 8-byte element of A.

func baseBytes(m, n int) float64 {
	return (float64(m)*float64(n) + float64(m) + float64(n)) * sim.BytesF64
}

func tcProfile(m, n int) sim.Profile {
	mn := float64(m) * float64(n)
	return sim.Profile{
		// Every MMA computes 8 identical output columns: 8× redundancy.
		TensorFLOPs: 16 * mn,
		DRAMBytes:   baseBytes(m, n),
		L1Bytes:     16 * mn, // fragment staging: 512 B per 32 payload elems
		ConstBytes:  float64(n) * sim.BytesF64 * float64(m) / mmu.M,
		Launches:    1,
		Overlap:     0.90,
		Eff: sim.Efficiency{
			Tensor: sim.EffModerate,
			DRAM:   0.90, // regularized block loads stream A
			L1:     0.9,
		},
	}
}

func ccProfile(m, n int) sim.Profile {
	p := tcProfile(m, n)
	p.VectorFLOPs, p.TensorFLOPs = p.TensorFLOPs, 0
	p.Overlap = 0.35 // scalar MMA emulation overlaps poorly
	p.Eff = sim.Efficiency{Vector: 0.30, DRAM: 0.90, L1: 0.9}
	return p
}

func cceProfile(m, n int) sim.Profile {
	mn := float64(m) * float64(n)
	return sim.Profile{
		VectorFLOPs: 2 * mn,
		DRAMBytes:   baseBytes(m, n),
		L1Bytes:     2 * mn,
		Launches:    1,
		Overlap:     0.70,
		Eff: sim.Efficiency{
			Vector: sim.EffModerate,
			// Without the MMA block layout the row-major loads of the
			// skinny matrix coalesce slightly worse.
			DRAM: 0.82,
			L1:   0.9,
		},
	}
}

func baselineProfile(m, n int) sim.Profile {
	mn := float64(m) * float64(n)
	return sim.Profile{
		VectorFLOPs: 2 * mn,
		DRAMBytes:   baseBytes(m, n),
		L1Bytes:     2 * mn,
		Launches:    1,
		Overlap:     0.75,
		Eff: sim.Efficiency{
			Vector: 0.60,
			DRAM:   0.70, // cuBLAS GEMV on very skinny matrices underuses BW
			L1:     0.9,
		},
	}
}
